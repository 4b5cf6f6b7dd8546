"""``desugar``, which replays a term's table through ``TermSpace.node``,
against the op-set one it replaced (``desugar_reference``), on conftest's
random terms before desugaring, under every variant: equal results that
print the same, the same ParseError text where the variant's gating rejects
the term, and idempotence."""

import random

import pytest

import dalkit as dk
import dalkit.syntax as S
import desugar_reference as R
from conftest import random_term
from dalkit.syntax import LogicVariant as V

AIMPL = S.AImpl(S.Basic("a"), S.Compl(S.Basic("b")))


def outcome(desugar, t, variant):
    try:
        return desugar(t, variant)
    except dk.ParseError as e:
        return str(e)


def terms(rng):
    """Random terms, each also inside '<->' and beside a '~>' before or after it."""
    out = []
    for _ in range(60):
        t, u = (random_term(rng, rng.randint(0, 3), props=("p",)) for _ in range(2))
        out += [t, S.Iff(t, u), S.Or(S.Perm(AIMPL), t), S.Iff(t, S.Forb(AIMPL))]
    return out


@pytest.mark.parametrize("variant", list(V), ids=lambda v: v.value)
def test_desugar_agrees_with_op_set_reference(variant):
    rng = random.Random(f"desugar-{variant.value}")
    rejected = 0
    for t in terms(rng):
        got, ref = outcome(S.desugar, t, variant), outcome(R.desugar, t, variant)
        if isinstance(ref, str):
            assert got == ref, (S.print_term(t), variant)
            rejected += 1
            continue
        assert "_table" not in vars(got)   # its rows need not be in walk order
        assert got == ref and S.print_term(got, variant) == S.print_term(ref, variant)
        assert S.desugar(got, variant) == got
    assert (rejected > 0) is not variant.allows_aimpl   # only DAL_IAL and DAL_INT admit all
