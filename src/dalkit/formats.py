"""Line-oriented text formats for models, algebras, and proofs.

Model (.dam):
    elements: e1 e2 e3 e4
    permitted: e3 e4
    forbidden: e2
    val drinking: e2 e3

Algebra (.daa):
    actions: free a b            # or: powerset p q | chain 3 | downsets x<y z
    formulas: chain 2
    P default = bot              # formula element name, or top/bot
    P {a&~b ~a&~b} = top         # per-element override
    F default = bot
    E {} {a&b} = top             # optional; equality is crisp when absent

Proof (.prf):
    logic: dal
    alphabet: a b                # only for NDAL2-5
    1: perm(a + b) <-> perm(a) & perm(b)   [D1]
    2: ...                                  [mp 1 2]

'#' starts a comment anywhere on a line; blank lines are skipped.

The algebra reader and writer import ``lattice`` and ``algebra`` when
called, so reading and writing proofs and models needs neither; none of
them loads numpy.  A table-backed carrier (``chain``, ``downsets``) may have
at most ``MAX_TABLE_ELEMENTS`` elements: its operation tables grow with the
square of that count, and ``check-algebra``'s law check with the cube, to
~6 s at the cap.
"""

from __future__ import annotations

from . import proof as P
from . import syntax as S
from .syntax import LogicVariant


MAX_TABLE_ELEMENTS = 256


class FormatError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def read_model(text: str):
    from .models import DeonticModel, Valuation
    elements = None
    permitted, forbidden = [], []
    vmap = {}
    for i, line in _lines(text):
        key, sep, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        if not sep:
            raise FormatError(i, f"expected 'key: values', got {line!r}")
        if key == "elements":
            elements = rest.split()
        elif key == "permitted":
            permitted = rest.split()
        elif key == "forbidden":
            forbidden = rest.split()
        elif key.startswith("val ") or key.startswith("val\t"):
            vmap[key[3:].strip()] = rest.split()
        else:
            raise FormatError(i, f"unknown key {key!r}")
    if elements is None:
        raise FormatError(0, "missing 'elements:' line")
    try:
        M = DeonticModel(elements, permitted, forbidden)
        universe = set(elements)
        for name, subset in vmap.items():
            extra = set(subset) - universe
            if extra:
                raise ValueError(f"val {name}: unknown elements {sorted(extra)}")
        return M, Valuation(vmap)
    except ValueError as e:
        raise FormatError(0, str(e)) from None


def write_model(M: DeonticModel, v: Valuation, prop_val=None) -> str:
    def ordered(subset):
        return " ".join(e for e in M.elements if e in subset)

    out = [f"elements: {' '.join(M.elements)}".rstrip(),
           f"permitted: {ordered(M.permitted)}".rstrip(),
           f"forbidden: {ordered(M.forbidden)}".rstrip()]
    for name in sorted(v.map):
        out.append(f"val {name}: {ordered(v.map[name])}".rstrip())
    for name in sorted(prop_val or {}):
        out.append(f"# prop {name} = {'true' if prop_val[name] else 'false'}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------

class AlgebraFile(S.Record, frozen=False):
    """A deontic algebra plus what is needed to interpret and re-write it."""
    algebra: DeonticAlgebra
    action_spec: str
    formula_spec: str
    named_actions: dict     # basic-action-style names -> action elements


def _make_lattice(spec: str, lineno: int):
    from .lattice import (Poset, chain, downset_algebra, free_boolean,
                          powerset_algebra)
    parts = spec.split()
    if not parts:
        raise FormatError(lineno, "expected a lattice constructor "
                                  "(powerset, free, chain or downsets)")
    kind, args = parts[0], parts[1:]
    too_many = f"{kind} carrier has more than {MAX_TABLE_ELEMENTS} elements"
    named = {}
    if kind == "powerset":
        lat = powerset_algebra(args)
        named = {a: lat.index_of("{%s}" % a) for a in args}
    elif kind == "free":
        lat, named = free_boolean(args)
    elif kind == "chain":
        if len(args) != 1 or not args[0].isdigit():
            raise FormatError(lineno, "chain needs one numeric argument")
        if int(args[0]) > MAX_TABLE_ELEMENTS:
            raise FormatError(lineno, too_many)
        lat = chain(int(args[0]))
    elif kind == "downsets":
        points, edges = [], []
        for tok in args:
            if "<" in tok:
                a, _, b = tok.partition("<")
                edges.append((a, b))
                points += [a, b]
            else:
                points.append(tok)
        seen = list(dict.fromkeys(points))
        if len(seen) >= MAX_TABLE_ELEMENTS:   # n points have at least n + 1 downsets
            raise FormatError(lineno, too_many)
        poset = Poset.from_edges(seen, edges)
        if len(poset.downset_masks(MAX_TABLE_ELEMENTS)) > MAX_TABLE_ELEMENTS:
            raise FormatError(lineno, too_many)
        lat = downset_algebra(poset)
        for i, p in enumerate(seen):   # the principal downset of p
            mask = sum(1 << j for j in range(len(seen)) if poset.lt[j][i]) | 1 << i
            named[p] = lat.downset_masks.index(mask)
    else:
        raise FormatError(lineno, f"unknown lattice constructor {kind!r}")
    return lat, named


def _felem(formula: HeytingAlgebra, name: str, lineno: int) -> int:
    if name == "top":
        return formula.top
    if name == "bot":
        return formula.bot
    try:
        return formula.index_of(name)
    except (KeyError, ValueError):
        raise FormatError(lineno, f"unknown formula element {name!r}") from None


def _fname(formula: HeytingAlgebra, x) -> str:
    """The name _felem reads back as x."""
    if x == formula.top:
        return "top"
    if x == formula.bot:
        return "bot"
    return formula.element_name(int(x))


def _aelem(action, name, lineno):
    try:
        return action.index_of(name)
    except (KeyError, ValueError):
        raise FormatError(lineno, f"unknown action element {name!r}") from None


def _split_two_elems(rest, lineno):
    rest = rest.strip()
    names = []
    while rest and len(names) < 2:
        if rest.startswith("{"):
            end = rest.find("}")
            if end < 0:
                raise FormatError(lineno, "unbalanced '{'")
            names.append(rest[:end + 1])
            rest = rest[end + 1:].strip()
        else:
            head, _, rest = rest.partition(" ")
            names.append(head)
            rest = rest.strip()
    if len(names) != 2 or rest:
        raise FormatError(lineno, "E lines need exactly two element names")
    return names


def read_algebra(text: str) -> AlgebraFile:
    from .algebra import build
    action = formula = None
    action_spec = formula_spec = None
    named = {}
    defaults, entries, e_entries = {}, {"P": [], "F": []}, []
    for i, line in _lines(text):
        key, _, rest = line.partition(":")
        if _ and key.strip() in ("actions", "formulas"):
            spec = rest.strip()
            lat, lat_named = _make_lattice(spec, i)
            if key.strip() == "actions":
                action, action_spec, named = lat, spec, lat_named
            else:
                formula, formula_spec = lat, spec
            continue
        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise FormatError(i, f"expected an assignment, got {line!r}")
        lhs, rhs = lhs.strip(), rhs.strip()
        op, _, elem = lhs.partition(" ")
        elem = elem.strip()
        if op in ("P", "F") and elem == "default":
            defaults[op] = (rhs, i)
        elif op in ("P", "F"):
            entries[op].append((elem, rhs, i))
        elif op == "E":
            a, b = _split_two_elems(elem, i)
            e_entries.append((a, b, rhs, i))
        else:
            raise FormatError(i, f"unknown directive {op!r}")
    if action is None or formula is None:
        raise FormatError(0, "need both 'actions:' and 'formulas:' lines")

    def fill(what):
        vec = [_felem(formula, *defaults[what]) if what in defaults else -1] * action.size
        for elem, rhs, lineno in entries[what]:
            vec[_aelem(action, elem, lineno)] = _felem(formula, rhs, lineno)
        if -1 in vec:
            missing = action.element_name(vec.index(-1))
            raise FormatError(0, f"{what} is unspecified at {missing} (add a default)")
        return vec

    Pv, Fv = fill("P"), fill("F")
    E = None
    if e_entries:
        E = [[formula.top if a == b else formula.bot for b in range(action.size)]
             for a in range(action.size)]
        for a, b, rhs, lineno in e_entries:
            E[_aelem(action, a, lineno)][_aelem(action, b, lineno)] = \
                _felem(formula, rhs, lineno)
    D = build(action, formula, Pv, Fv, E)
    return AlgebraFile(D, action_spec, formula_spec, named)


def write_algebra(af: AlgebraFile) -> str:
    D = af.algebra
    fm = D.formula

    out = [f"actions: {af.action_spec}", f"formulas: {af.formula_spec}"]
    for tag, vec in (("P", D.P), ("F", D.F)):
        counts = [vec.count(x) for x in range(fm.size)]
        default = counts.index(max(counts))   # the most frequent, the smallest of a tie
        out.append(f"{tag} default = {_fname(fm, default)}")
        for i in range(D.action.size):
            if vec[i] != default:
                out.append(f"{tag} {D.action.element_name(i)} = {_fname(fm, vec[i])}")
    if not D.crisp_equality:
        for a in range(D.action.size):
            for b in range(D.action.size):
                crisp = fm.top if a == b else fm.bot
                if D.E(a, b) != crisp:
                    out.append(f"E {D.action.element_name(a)} "
                               f"{D.action.element_name(b)} = {_fname(fm, D.E(a, b))}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Proofs
# ---------------------------------------------------------------------------

def read_proof(text: str) -> P.Proof:
    variant = None
    alphabet = None
    lines = []
    for i, line in _lines(text):
        if line.startswith("logic:"):
            name = line.partition(":")[2].strip()
            try:
                variant = LogicVariant(name)
            except ValueError:
                raise FormatError(i, f"unknown logic {name!r}") from None
            continue
        if line.startswith("alphabet:"):
            alphabet = tuple(line.partition(":")[2].split())
            continue
        if variant is None:
            raise FormatError(i, "proof must start with a 'logic:' line")
        head, _, rest = line.partition(":")
        if not _ or not head.strip().isdigit():
            raise FormatError(i, f"expected 'n: formula [justification]', got {line!r}")
        n = int(head)
        if n != len(lines) + 1:
            raise FormatError(i, f"expected line number {len(lines) + 1}, got {n}")
        body, bra, just = rest.rpartition("[")
        if not bra or not just.rstrip().endswith("]"):
            raise FormatError(i, "missing [justification]")
        just = just.rstrip()[:-1].strip()
        try:
            phi = S.parse_formula(body.strip(), variant, alphabet)
        except S.ParseError as e:
            raise FormatError(i, str(e)) from None
        toks = just.split()
        if toks and toks[0] == "mp":
            if len(toks) != 3 or not all(t.isdigit() for t in toks[1:]):
                raise FormatError(i, f"bad mp justification {just!r}")
            lines.append((phi, P.MP(int(toks[1]), int(toks[2]))))
        elif len(toks) == 1:
            lines.append((phi, P.Axiom(toks[0])))
        else:
            raise FormatError(i, f"bad justification {just!r}")
    if variant is None:
        raise FormatError(0, "missing 'logic:' line")
    return P.Proof(variant, tuple(lines), alphabet)


def write_proof(p: P.Proof) -> str:
    out = [f"logic: {p.variant.value}"]
    if p.alphabet:
        out.append(f"alphabet: {' '.join(p.alphabet)}")
    for k, (phi, just) in enumerate(p.lines, start=1):
        if isinstance(just, P.MP):
            j = f"mp {just.i} {just.j}"
        else:
            j = just.id
        out.append(f"{k}: {S.print_formula(phi, p.variant)}   [{j}]")
    return "\n".join(out) + "\n"
