"""Command-line interface.

Exit codes: 0 = valid/true/accepted, 1 = invalid/false/countermodel found,
2 = any input or usage error.  Countermodels print in the model file format
so they can be fed back to eval-model.

Each subcommand imports the modules it uses.  Only ``countermodel`` loads
numpy, for the Heyting search; every other subcommand runs on the lattices'
Python tables.
"""

from __future__ import annotations

import argparse
import sys

from . import formats
from . import proof as PR
from . import syntax as S
from .syntax import LogicVariant


_HEYTING = (LogicVariant.DAL_IPL, LogicVariant.DAL_IAL, LogicVariant.DAL_INT)


def _variant(args) -> LogicVariant:
    try:
        return LogicVariant(args.logic)
    except ValueError:
        raise ValueError(f"unknown logic {args.logic!r}") from None


def _alphabet(args):
    if getattr(args, "alphabet", None):
        return tuple(x.strip() for x in args.alphabet.split(",") if x.strip())
    return None


def _error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _parse_interp(text, af: formats.AlgebraFile, phi, variant, *,
                  seed_named=True):
    """name=value pairs; values are action element names, action terms over
    the algebra's named generators, or formula element names for props."""
    from .algebra import Interpretation, evaluate
    D = af.algebra
    prop_names = set(S.symbols(phi).props) if phi is not None else set()
    # the algebra file's own named generators are usable without repeating
    # them on the command line; explicit entries override
    act, prop = dict(af.named_actions) if seed_named else {}, {}
    if not text:
        return Interpretation(act=act)
    for pair in text.split(","):
        name, eq, value = pair.partition("=")
        name, value = name.strip(), value.strip()
        if not eq or not name:
            raise ValueError(f"bad interpretation entry {pair!r}")
        if name in prop_names:
            try:
                prop[name] = formats._felem(D.formula, value, 0)
            except formats.FormatError:   # not a file line: drop the "line 0:" prefix
                raise ValueError(f"unknown formula element {value!r}") from None
            continue
        try:
            act[name] = D.action.index_of(value)
            continue
        except (KeyError, ValueError):
            pass
        term_variant = variant if variant.allows_aimpl else LogicVariant.DAL
        term = S.parse_action(value, term_variant)
        h = Interpretation(act=af.named_actions)
        act[name] = evaluate(D, h, term)
    return Interpretation(act=act, prop=prop)


def _print_algebra_countermodel(cm: Countermodel):
    D = cm.algebra
    print(f"countermodel: {D.flavor} algebra, |A|={D.action.size}, |F|={D.formula.size}")
    print(f"  action elements: {' '.join(D.action.names)}")
    print(f"  P: {' '.join(formats._fname(D.formula, x) for x in D.P)}")
    print(f"  F: {' '.join(formats._fname(D.formula, x) for x in D.F)}")
    for name, x in sorted(cm.interp.act.items()):
        print(f"  {name} -> {D.action.element_name(x)}")
    for name, x in sorted(cm.interp.prop.items()):
        print(f"  {name} -> {formats._fname(D.formula, x)}")


_DOT_COLORS = {"": "white", "P": "palegreen", "F": "lightcoral", "P,F": "khaki"}


def dot_export(D: DeonticAlgebra | object) -> str:
    """Hasse diagram of an action lattice in DOT; P/F-top nodes tinted."""
    from .algebra import DeonticAlgebra
    lat = D.action if isinstance(D, DeonticAlgebra) else D
    if lat.size > 64:
        raise ValueError(f"{lat.size} elements is too large to draw (max 64)")
    top_f = D.formula.top if isinstance(D, DeonticAlgebra) else None
    out = ["digraph lattice {", "  rankdir=BT;",
           '  node [shape=box, style=filled, fillcolor=white];']
    for i in range(lat.size):
        marks = ""
        if isinstance(D, DeonticAlgebra):
            marks = ",".join(tag for tag, vec in (("P", D.P), ("F", D.F)) if vec[i] == top_f)
        label = lat.element_name(i) + (f" [{marks}]" if marks else "")
        out.append(f'  n{i} [label="{label}", fillcolor="{_DOT_COLORS[marks]}"];')
    for a, b in lat.covers():
        out.append(f"  n{a} -> n{b};")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_parse(args):
    variant = _variant(args)
    t, _ = S._parse(args.text, variant, _alphabet(args))   # an action term or a formula
    print(S.print_term(t, variant))
    return 0


def _cmd_eval_model(args):
    from .models import sat
    variant = _variant(args)
    with open(args.model) as fh:
        M, v = formats.read_model(fh.read())
    phi = S.parse_formula(args.formula, variant, _alphabet(args))
    prop_val = None
    if args.props:
        prop_val = {}
        for pair in args.props.split(","):
            name, eq, val = (x.strip() for x in pair.partition("="))
            if not eq or not name or val not in ("true", "false", "1", "0"):
                raise ValueError(f"bad proposition entry {pair!r}")
            prop_val[name] = val in ("true", "1")
    value = sat(M, v, phi, prop_val=prop_val)
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_eval_algebra(args):
    from .algebra import evaluate
    variant = _variant(args)
    with open(args.algebra) as fh:
        af = formats.read_algebra(fh.read())
    phi = S.parse_formula(args.formula, variant, _alphabet(args))
    h = _parse_interp(args.interp, af, phi, variant)
    value = evaluate(af.algebra, h, phi)
    print(formats._fname(af.algebra.formula, value))
    return 0 if value == af.algebra.formula.top else 1


def _cmd_decide(args):
    from .models import Valid, decide_classical
    variant = _variant(args)
    phi = S.parse_formula(args.formula, variant, _alphabet(args))
    verdict = decide_classical(phi, variant, _alphabet(args), max_assignments=args.budget)
    if isinstance(verdict, Valid):
        print("valid")
        return 0
    print("countermodel:")
    text = formats.write_model(verdict.model, verdict.valuation, verdict.prop_val)
    print("\n".join("  " + line for line in text.splitlines()))
    return 1


def _cmd_countermodel(args):
    from . import decide as DC
    variant = _variant(args)
    if variant not in _HEYTING:
        return _error(f"countermodel handles {', '.join(v.value for v in _HEYTING)}")
    phi = S.parse_formula(args.formula, variant, _alphabet(args))
    verdict = DC.countermodel_heyting(phi, variant,
                                      max_candidates=args.budget,
                                      max_points=args.max_points)
    if isinstance(verdict, DC.Unknown):
        print(f"unknown: {verdict.reason}")
        return 0
    _print_algebra_countermodel(verdict)
    return 1


def _cmd_check_algebra(args):
    from .lattice import validate
    with open(args.algebra) as fh:
        text = fh.read()
    try:
        af = formats.read_algebra(text)
    except S.ConditionError as e:
        print(f"invalid: {e}")
        return 1
    problems = validate(af.algebra.action) + validate(af.algebra.formula)
    if problems:
        for p in problems:
            print(f"invalid lattice: {p}")
        return 1
    D = af.algebra
    print(f"ok: flavor {D.flavor}, |A|={D.action.size}, |F|={D.formula.size}, "
          f"E {'crisp' if D.crisp_equality else 'graded'}")
    return 0


def _cmd_check_proof(args):
    with open(args.proof) as fh:
        p = formats.read_proof(fh.read())
    result = PR.check_proof(p)
    if result.ok:
        print(f"ok: {len(p.lines)} lines ({p.variant.value})")
        return 0
    print(f"line {result.line}: {result.reason}")
    return 1


def _cmd_quotient(args):
    from .algebra import evaluate
    from .lattice import congruence_closure, quotient
    variant = _variant(args)
    with open(args.algebra) as fh:
        af = formats.read_algebra(fh.read())
    D = af.algebra
    h = _parse_interp(args.interp, af, None, variant)
    pairs = []
    for text in args.equation:
        phi = S.parse_formula(text, variant)
        if not isinstance(phi, S.Eq):
            return _error(f"{text!r} is not an action equation")
        pairs.append((evaluate(D, h, phi.left), evaluate(D, h, phi.right)))
    partition = congruence_closure(D.action, pairs)
    q, cls = quotient(D.action, partition)
    print(f"quotient size: {q.size}")
    for block in sorted((sorted(b) for b in partition), key=lambda b: b[0]):
        print("  { " + " ".join(D.action.element_name(x) for x in block) + " }")
    return 0


def _cmd_convert(args):
    variant = _variant(args)
    if args.to_algebra:
        if not args.model:
            return _error("--to-algebra needs --model")
        from .duality import stoneify, to_algebra
        with open(args.model) as fh:
            M, v = formats.read_model(fh.read())
        D, h = to_algebra(M, v)
        D2, (aiso, fiso) = stoneify(D)
        atoms = " ".join(D2.action.element_name(a).strip("{}") for a in D2.action.atoms())
        af = formats.AlgebraFile(D2, f"powerset {atoms}", "chain 2", {})
        text = formats.write_algebra(af)
        for name in sorted(h.act):
            text += f"# interp {name} = {D2.action.element_name(int(aiso[h.act[name]]))}\n"
        print(text, end="")
        return 0
    if args.to_model:
        if not args.algebra:
            return _error("--to-model needs --algebra")
        from .algebra import Interpretation
        from .duality import stoneify, to_model
        with open(args.algebra) as fh:
            af = formats.read_algebra(fh.read())
        D = af.algebra
        # the emitted model's action vocabulary is exactly what --interp
        # names; without --interp, fall back to the file's named actions
        h = _parse_interp(args.interp, af, None, variant, seed_named=False)
        if not h.act:
            h = Interpretation(act=dict(af.named_actions))
        if D.formula.size != 2 or not hasattr(D.action, "member_set"):
            if D.flavor != "BB":
                return _error("only BB algebras convert to models")
            D, (aiso, fiso) = stoneify(D)
            h = Interpretation(act={k: int(aiso[x]) for k, x in h.act.items()})
        M, v = to_model(D, h)
        print(formats.write_model(M, v), end="")
        return 0
    return _error("convert needs --to-algebra or --to-model")


def _cmd_catalog(args):
    from .lattice import heyting_catalog
    for i, lat in enumerate(heyting_catalog(args.max_points)):
        points = len(lat.poset.point_names) if hasattr(lat, "poset") else "?"
        print(f"{i}: size={lat.size} poset_points={points} "
              f"elements: {' '.join(lat.names)}")
    return 0


def _cmd_dot(args):
    with open(args.algebra) as fh:
        af = formats.read_algebra(fh.read())
    print(dot_export(af.algebra), end="")
    return 0


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--logic", default="dal",
                        help="logic variant (dal, ndal1..ndal5, dal_prop, "
                             "dal_ipl, dal_ial, dal_int)")
    common.add_argument("--alphabet", default=None,
                        help="comma-separated finite basic-action alphabet")

    ap = argparse.ArgumentParser(prog="dalkit",
                                 description="deontic action logic workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="echo the canonical form")
    p.add_argument("text")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("eval-model", parents=[common], help="satisfaction in a model")
    p.add_argument("--model", required=True)
    p.add_argument("--props", default=None, help="p=true,q=false")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_eval_model)

    p = sub.add_parser("eval-algebra", parents=[common], help="evaluate in an algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--interp", default="", help="name=element-or-term,...")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_eval_algebra)

    p = sub.add_parser("decide", parents=[common], help="classical validity")
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("countermodel", parents=[common],
                       help="refutation search for Heyting variants")
    p.add_argument("--budget", type=int, default=5000)
    p.add_argument("--max-points", type=int, default=2)
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_countermodel)

    p = sub.add_parser("check-algebra", parents=[common],
                       help="validate lattice laws and deontic conditions")
    p.add_argument("--algebra", required=True)
    p.set_defaults(fn=_cmd_check_algebra)

    p = sub.add_parser("check-proof", parents=[common], help="check a Hilbert proof")
    p.add_argument("proof")
    p.set_defaults(fn=_cmd_check_proof)

    p = sub.add_parser("quotient", parents=[common],
                       help="quotient the action lattice by equations")
    p.add_argument("--algebra", required=True)
    p.add_argument("--interp", default="", help="name=element-or-term,...")
    p.add_argument("equation", nargs="+")
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("convert", parents=[common], help="model <-> algebra")
    p.add_argument("--to-algebra", action="store_true")
    p.add_argument("--to-model", action="store_true")
    p.add_argument("--model", default=None)
    p.add_argument("--algebra", default=None)
    p.add_argument("--interp", default="")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("catalog", parents=[common], help="list the Heyting catalog")
    p.add_argument("--max-points", type=int, default=3)
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("dot", parents=[common], help="Hasse diagram in DOT")
    p.add_argument("--algebra", required=True)
    p.set_defaults(fn=_cmd_dot)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except KeyError as e:
        # str(KeyError) reprs its argument; unwrap for a clean message
        return _error(str(e.args[0]) if e.args else str(e))
    except (S.ParseError, formats.FormatError, S.ConditionError, S.BudgetExceeded,
            ValueError, OSError) as e:
        return _error(str(e))


if __name__ == "__main__":
    sys.exit(main())
