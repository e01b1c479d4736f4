"""Synthetic data generation (systems S9-S10).

Substitutes the data the paper assumes but this reproduction cannot obtain
(real knowledge-base version dumps and real curator interest data) with
parameterised generators that *plant* the ground truth the evaluation needs.
The substitution rationale is in :mod:`repro.synthetic.schema_gen`.
"""

from repro.synthetic.config import (
    EvolutionConfig,
    InstanceConfig,
    SchemaConfig,
    UserConfig,
    WorldConfig,
    default_op_mix,
)
from repro.synthetic.evolution import (
    EvolutionOp,
    EvolutionSimulator,
    EvolutionTrace,
    simulate_evolution,
)
from repro.synthetic.instance_gen import HAS_VALUE, instance_iri, populate_instances
from repro.synthetic.schema_gen import SYN, class_iri, generate_schema, property_iri
from repro.synthetic.users import (
    PERSONAS,
    generate_users,
    make_groups,
    simulate_feedback,
    spread_interest,
)
from repro.synthetic.world import SyntheticWorld, generate_world

__all__ = [
    "EvolutionConfig",
    "InstanceConfig",
    "SchemaConfig",
    "UserConfig",
    "WorldConfig",
    "default_op_mix",
    "EvolutionOp",
    "EvolutionSimulator",
    "EvolutionTrace",
    "simulate_evolution",
    "HAS_VALUE",
    "instance_iri",
    "populate_instances",
    "SYN",
    "class_iri",
    "generate_schema",
    "property_iri",
    "PERSONAS",
    "generate_users",
    "make_groups",
    "simulate_feedback",
    "spread_interest",
    "SyntheticWorld",
    "generate_world",
]
