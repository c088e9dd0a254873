"""Multi-indexed neighbourhood models with pointwise intersection.

Formulas carry boxes indexed by finite groups of agents; a group's
neighbourhood family at a world is the set of all intersections of one
member per agent.  The package parses and evaluates formulas on finite
models, checks axiom schemas and frame conditions semantically,
verifies Hilbert-style proofs, and searches bounded model spaces for
countermodels.
"""

from .errors import (
    ConstraintError, FormulaSyntaxError, InputError, ModelFormatError,
    NbhdError, ProofFormatError, ResourceLimitError, UnknownWorldError,
    UnsupportedModelError,
)
from .formula import (
    And, Atom, Bottom, Box, Formula, Group, Iff, Implies, Not, Or, Top,
    boxed_atoms, formula_agents, formula_atoms, is_propositional_tautology,
    normalize, parse, render,
)
from .model import (
    AgentModel, FIXTURE_NAMES, GeneralModel, Model, NeighbourhoodMap, World,
    WorldSet, default_group_pool, definable_sets, fixture, group_families,
    group_neighbourhood, load_model, mentioned_agents, model_from_dict,
    model_to_dict, satisfies, save_model, truth_set, unions_up_to,
    valid_on_model, world_index,
)
from .frames import (
    BinaryConsistent, Conec, ConditionVerdict, Cop, FrameCondition,
    FrameWitness, IntersectionClosed, Monotone, Nec, PGroup, Reflexive,
    check_condition, close_under_intersections, close_under_supersets,
    format_condition, parse_condition,
)
from .frames import P as PCondition
from .logics import (
    B1, B2, B3, B4, BASE_LOGIC, CERTIFICATE_NAMES, CG, CONEC, COP, DI,
    AxiomRef, CounterExample, LogicDescriptor, MP, NEC, PG, Proof, ProofFile,
    ProofLine, ProofVerdict, RE, RMG, SA, SchemaId, SchemaVerdict, TG, Taut,
    builtin_certificate, check_entailment_certificate, check_proof,
    check_schema_semantically, counterexample_to_dict, format_schema,
    instantiate_schema, is_axiom_instance, load_proof, logic_from_dict,
    logic_to_dict, match_schema, parse_schema, proof_from_dict, proof_to_dict,
)
from .logics import P as PSchema
from .search import (
    FuzzReport, SchemaTarget, SearchBounds, SearchResult, Stream, Violation,
    exhaustive_models, find_countermodel, random_model,
    required_constraints, soundness_fuzz,
)

__version__ = "0.1.0"
