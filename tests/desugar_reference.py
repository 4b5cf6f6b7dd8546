"""The op-set ``desugar`` that replaying a table through ``TermSpace``
replaced, kept as the reference the new one is compared against.

It runs the term's compile_term table with one op per term class, which
builds the desugared term object by object and checks the variant's gating
as it goes.
"""

import dalkit.syntax as S


def _expand_impl(variant, left, right):
    return S.Impl(left, right) if variant.primitive_impl else S.Or(S.Not(left), right)


def _rebuild(cls):
    return lambda variant, name, *kids: cls(*kids) if name is None else cls(name)


def _check_aimpl(variant, _, left, right):
    if not variant.allows_aimpl:
        raise S.ParseError(f"action implication '~>' is not admitted under {variant.value}")
    return S.AImpl(left, right)


def _check_prop(variant, name):
    if not variant.allows_props:
        raise S.ParseError(f"proposition symbol {name!r} is not admitted under {variant.value}")
    return S.Prop(name)


_DESUGAR_OPS = {cls: _rebuild(cls) for cls in S._TERMS} | {
    S.AImpl: _check_aimpl,
    S.Prop: _check_prop,
    S.Impl: lambda variant, _, left, right: _expand_impl(variant, left, right),
    S.Iff: lambda variant, _, left, right: S.And(_expand_impl(variant, left, right),
                                                 _expand_impl(variant, right, left)),
}


def desugar(t, variant):
    """Expand sugar ('<->' always; '->' unless primitive) and check gating."""
    return S.run(S.compile_term(t), _DESUGAR_OPS, variant)
