"""Balanced color tables, table-indexing extractors, and their evaluation
harness: construction, exhaustive/sampled balance verification, string and
stream extraction, planted-dependency experiments."""

from .core import (
    BitString,
    InvalidParams,
    NotFound,
    OutOfRange,
    SeqSchedule,
    TableParams,
    TooLarge,
    derive_cond_params,
    derive_seq_schedule,
    derive_string_params,
)
from .extract import TablePolicy, extract_conditional, extract_string
from .seqtransform import (
    BitStream,
    BitStringStream,
    CountingBitStream,
    SeededBitStream,
    SequenceTransformer,
)
from .sources import (
    ExperimentReport,
    MatchCompressor,
    PlantedPairSpec,
    collision_entropy_empirical,
    dep_estimate,
    gen_planted_pair,
    min_entropy_empirical,
    run_extraction_experiment,
)
from .tables import (
    BalancedTable,
    ExistenceCheck,
    canonical_table,
    existence_condition_exponents,
    keyed_color,
    keyed_table,
    random_table,
)
from .verify import (
    ColorSet,
    Rectangle,
    VerificationReport,
    verify_exhaustive,
    verify_prefix_balance,
    verify_sampled,
)

__version__ = "0.1.0"
