"""The recursive proof matcher that dalkit.proof replaced, kept as the
reference the row-based matcher is compared against.

It walks terms recursively, field by field, and compares subterms with the
terms' ``==``, which compares their compile_term tables.  The recursion
overflows the stack on deep terms: only call it on small inputs.
"""

import dalkit.syntax as S
from dalkit.proof import MP, OK, Axiom, ProofResult, axiom_table


def expand_impl(variant, left, right):
    return S.Impl(left, right) if variant.primitive_impl else S.Or(S.Not(left), right)


def is_substitution_instance(psi, phi, alpha, beta):
    """True iff psi is phi with zero or more occurrences of alpha replaced by beta."""
    def match(res, orig):
        if orig == alpha and res == beta:
            return True
        if type(res) is not type(orig):
            return False
        for f in orig._fields:
            a, b = getattr(res, f), getattr(orig, f)
            if isinstance(b, (S.ActionTerm, S.FormulaTerm)):
                if not match(a, b):
                    return False
            elif a != b:
                return False
        return True

    return match(psi, phi)


def match_pattern(pat, t, binds):
    if isinstance(pat, S.AVar):
        if not isinstance(t, S.ActionTerm):
            return False
        if pat.name in binds:
            return binds[pat.name] == t
        binds[pat.name] = t
        return True
    if isinstance(pat, S.FVar):
        if not isinstance(t, S.FormulaTerm):
            return False
        if pat.name in binds:
            return binds[pat.name] == t
        binds[pat.name] = t
        return True
    if type(pat) is not type(t):
        return False
    for f in pat._fields:
        pv, tv = getattr(pat, f), getattr(t, f)
        if isinstance(pv, S.Term):
            if not match_pattern(pv, tv, binds):
                return False
        elif pv != tv:
            return False
    return True


def match_e2(phi, variant):
    """(α=β ∧ φ) → ψ with ψ a result of replacing occurrences of α by β."""
    if variant.primitive_impl:
        if not isinstance(phi, S.Impl):
            return False, None
        ante, psi = phi.left, phi.right
    else:
        if not (isinstance(phi, S.Or) and isinstance(phi.left, S.Not)):
            return False, None
        ante, psi = phi.left.arg, phi.right
    if not (isinstance(ante, S.And) and isinstance(ante.left, S.Eq)):
        return False, None
    alpha, beta = ante.left.left, ante.left.right
    body = ante.right
    if is_substitution_instance(psi, body, alpha, beta):
        return True, {"α": alpha, "β": beta, "φ": body, "ψ": psi}
    return False, None


def match_schema(phi, schema):
    if schema.id == "E2":
        return match_e2(phi, schema.variant)
    binds = {}
    if not match_pattern(schema.pattern, phi, binds):
        return False, None
    for name in schema.basic_vars:
        if not isinstance(binds.get(name), S.Basic):
            return False, None
    return True, binds


def check_proof(p, variant=None):
    variant = variant or p.variant
    table = axiom_table(variant, p.alphabet)
    lines = list(p.lines)
    for k, (phi, just) in enumerate(lines, start=1):
        if isinstance(just, Axiom):
            candidates = [s for s in table if s.id == just.id]
            if not candidates:
                return ProofResult(False, k, f"unknown axiom {just.id} for {variant.value}")
            if not any(match_schema(phi, s)[0] for s in candidates):
                return ProofResult(False, k, f"not an instance of {just.id}")
        elif isinstance(just, MP):
            if not (1 <= just.i < k and 1 <= just.j < k):
                return ProofResult(False, k, "mp must cite earlier lines")
            minor = lines[just.i - 1][0]
            major = lines[just.j - 1][0]
            if major != expand_impl(variant, minor, phi):
                return ProofResult(
                    False, k,
                    f"line {just.j} is not (line {just.i}) -> (line {k})")
        else:
            return ProofResult(False, k, f"unknown justification {just!r}")
    return OK
