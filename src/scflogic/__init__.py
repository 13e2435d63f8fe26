"""Model checking, encoding and bounded decision procedures for a modal
logic of social choice functions, cross-validated by brute-force
game-theoretic oracles on finite instances."""

from importlib import import_module as _import_module

from .core import (
    GameForm,
    InvalidDomain,
    LinearOrder,
    Profile,
    ScfModel,
    ScfTable,
    all_linear_orders,
    all_profiles,
    num_states,
    profile_index,
    scf_as_game_form,
)
from .logic import (
    FALSE,
    TRUE,
    And,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    KripkeScf,
    Not,
    Or,
    Out,
    Pref,
    PrefBox,
    Rep,
    Top,
    conj,
    disj,
    eval_kripke,
    kripke_view,
    state_atoms,
)
from ._stacked import Evaluator, evaluate, valid_in_model
from .encodings import (
    BR,
    CITSOV,
    DOM,
    MON,
    NODICT,
    STRPROOF,
    PropertyId,
    ballot_agent,
    ballot_profile,
    best_response,
    better,
    citsov,
    dom,
    mon,
    nodict,
    property_formula,
    rho,
    strproof,
    trueprofile,
)
from .game import (
    AuditReport,
    ImplementationReport,
    MonotonicityReport,
    NonDirectMechanism,
    SolutionConcept,
    dom_equilibria,
    equivalence_audit,
    has_citsov,
    implements,
    is_dictatorial,
    is_monotonic,
    is_strategy_proof,
    nash_equilibria,
    property_oracle,
    solution_set,
    truthfully_implements,
)
from .decision import (
    BudgetExceeded,
    Verdict,
    check_scf_properties,
    check_scf_property,
    enumerate_models,
    representative_model,
    sample_models,
    satisfiable,
    valid,
)
from .files import (
    FileFormatError,
    load_model,
    load_scf,
    model_from_dict,
    model_to_dict,
    save_model,
    save_scf,
    scf_from_dict,
    scf_to_dict,
)
from .parser import Context, ParseError, SourceSpan, format_formula, parse

__version__ = "0.1.0"

# `axioms` and its names are bound when one of them is first read (PEP 562),
# so that importing the package, or a command that never sweeps, does not
# load it; `from scflogic import *` binds them as it did when they were
# imported here
_AXIOMS = (
    "SCHEMAS",
    "AxiomInstance",
    "Instances",
    "default_pool",
    "instantiate",
    "instantiate_all",
    "pref_necessitation_holds",
    "soundness_check",
)
__all__ = [name for name in globals() if not name.startswith("_")] + ["axioms", *_AXIOMS]


def __getattr__(name: str):
    if name == "axioms" or name in _AXIOMS:
        axioms = _import_module(".axioms", __name__)
        globals().update((each, getattr(axioms, each)) for each in _AXIOMS)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
