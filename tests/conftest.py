"""Shared generators for randomized tests.

Everything is seeded so failures reproduce; the generators produce
validated algebras only (build() is the gatekeeper).
"""

import random

import numpy as np
import pytest

import dalkit as dk


def random_pf(rng, action, formula, tries=200):
    """Random valid (P, F) with crisp E: random antitone maps from the
    join-irreducibles, rejection-sampled against the P-meets-F condition."""
    ji = action.join_irreducibles()
    for _ in range(tries):
        p_vals = [rng.randrange(formula.size) for _ in ji]
        f_vals = [rng.randrange(formula.size) for _ in ji]
        P = dk.extend_by_irreducibles(action, formula, ji, p_vals)
        F = dk.extend_by_irreducibles(action, formula, ji, f_vals)
        if all(formula.meet(int(p), int(f)) == formula.bot
               for x, (p, f) in enumerate(zip(P, F)) if x != action.bot):
            return P, F
    # always satisfiable: permit everything, forbid nothing but 0
    P = np.full(action.size, formula.top, dtype=np.int32)
    F = np.where(np.arange(action.size) == action.bot, formula.top, formula.bot)
    return P, F.astype(np.int32)


def random_bb_algebra(rng):
    """Validated BB algebra: action a powerset on 1..4 atoms, formula 2 or
    the powerset on 2 atoms."""
    action = dk.powerset_algebra([f"t{i}" for i in range(rng.randint(1, 4))])
    formula = dk.two() if rng.random() < 0.5 else dk.powerset_algebra(["u", "w"])
    P, F = random_pf(rng, action, formula)
    return dk.build(action, formula, P, F)


def heyting_pool():
    return [dk.chain(3), dk.heyting_catalog(2)[1], dk.heyting_catalog(2)[2]]


def random_flavored_algebra(rng, flavor):
    """Validated algebra of the requested flavor (crisp E)."""
    boolean_acts = [dk.powerset_algebra(["s"]), dk.powerset_algebra(["s", "t"])]
    heyting_acts = [h for h in dk.heyting_catalog(2) if not dk.is_boolean(h)]
    boolean_forms = [dk.two(), dk.powerset_algebra(["u", "w"])]
    heyting_forms = [h for h in heyting_pool() if not dk.is_boolean(h)]
    action = rng.choice(boolean_acts if flavor[0] == "B" else heyting_acts)
    formula = rng.choice(boolean_forms if flavor[1] == "B" else heyting_forms)
    P, F = random_pf(rng, action, formula)
    return dk.build(action, formula, P, F)


def random_model(rng, max_elems=4, n_actions=2):
    n = rng.randint(1, max_elems)
    elems = [f"e{i+1}" for i in range(n)]
    pool = list(elems)
    rng.shuffle(pool)
    cut1 = rng.randint(0, n)
    cut2 = rng.randint(cut1, n)
    M = dk.DeonticModel(elems, permitted=pool[:cut1], forbidden=pool[cut1:cut2])
    names = ["a", "b"][:n_actions]
    v = dk.Valuation({nm: {e for e in elems if rng.random() < 0.5} for nm in names})
    return M, v


def random_formula(rng, depth, variant=dk.LogicVariant.DAL, acts=("a", "b"),
                   props=()):
    """Random formula over the given symbols, connective-weighted, desugared."""
    return dk.desugar(random_term(rng, depth, acts, props), variant)


def random_term(rng, depth, acts=("a", "b"), props=()):
    """random_formula's formula before desugaring: it may hold Impl."""

    def act(d):
        if d == 0:
            letter = [dk.Basic(rng.choice(acts))] if acts else []
            return rng.choice(letter + [dk.Zero(), dk.One()])
        k = rng.randrange(8)
        if k < 2:
            return dk.Union(act(d - 1), act(d - 1))
        if k < 4:
            return dk.Inter(act(d - 1), act(d - 1))
        if k < 6:
            return dk.Compl(act(d - 1))
        return act(d - 1)

    def form(d):
        if d == 0:
            choices = [dk.Perm(act(1)), dk.Forb(act(1)), dk.Eq(act(1), act(1))]
            if props:
                choices.append(dk.Prop(rng.choice(props)))
            return rng.choice(choices)
        k = rng.randrange(10)
        if k < 2:
            return dk.Or(form(d - 1), form(d - 1))
        if k < 4:
            return dk.And(form(d - 1), form(d - 1))
        if k < 6:
            return dk.Not(form(d - 1))
        if k < 8:
            return dk.Impl(form(d - 1), form(d - 1))
        return form(d - 1)

    return form(depth)


def instantiate(pat, subst):
    """Fill a schema pattern's metavariables from a substitution map."""
    import dalkit.syntax as S
    if isinstance(pat, (S.AVar, S.FVar)):
        return subst[pat.name]
    if not pat._fields:
        return pat
    return type(pat)(**{f: instantiate(getattr(pat, f), subst)
                        if isinstance(getattr(pat, f), S.Term)
                        else getattr(pat, f)
                        for f in pat._fields})


@pytest.fixture
def rng():
    return random.Random(20260814)
