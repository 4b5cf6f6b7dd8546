"""dalkit: a workbench for deontic action logics.

Two-sorted terms (actions and formulas), satisfaction over deontic action
models, evaluation in finite deontic action algebras (Boolean or Heyting
on either sort), Hilbert proof checking, a decision procedure for the
classical variants, bounded countermodel search for the intuitionistic
ones, and conversions between models and concrete algebras.

The package imports its submodules on first use (PEP 562), so
``import dalkit`` alone loads no submodule: ``dalkit.parse_formula`` loads
``syntax`` only, ``dalkit.heyting_catalog`` loads ``lattice``.  Only
``decide`` imports numpy when it loads; the array paths of ``algebra`` and
``models`` import it when called.
"""

import importlib

__version__ = "0.1.0"

# public name -> home submodule
_EXPORTS = {
    "algebra": """DeonticAlgebra Interpretation act_eq_iff_form_eq build check_ndal
        enumerate_pf_maps evaluate evaluate_batch extend_by_irreducibles
        preimage_ideals satisfies subalgebra_check valid_formula_in valid_in""",
    "decide": "Unknown countermodel_heyting fence_scenario_search",
    "duality": "RoundTripReport round_trip_report stoneify to_algebra to_model",
    "formats": """AlgebraFile FormatError read_algebra read_model read_proof
        write_algebra write_model write_proof""",
    "lattice": """BooleanAlgebra HeytingAlgebra Lattice Poset PowersetAlgebra
        SetFamilyAlgebra all_ideals all_posets chain congruence_closure
        downset_algebra find_isomorphism free_boolean generated_sublattice
        heyting_catalog is_boolean is_congruence is_ideal powerset_algebra
        principal_ideal quotient sublattice_on two validate""",
    "models": """AtomAssignment Countermodel DeonticModel Valid Valuation
        decide_classical extend sat taut_oracle""",
    "proof": """Axiom AxiomSchema MP Proof ProofResult axiom_table check_proof
        match_schema""",
    "syntax": """AImpl And AVar Basic Bot BudgetExceeded Compl ConditionError Eq
        Forb FVar Iff Impl Inter LogicVariant Not One Or ParseError Perm Prop
        Top Union Zero desugar is_substitution_instance metavariables
        parse_action parse_formula print_action print_formula print_term
        symbols""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
