"""``repro.engine`` — a from-scratch in-memory relational engine.

This package is the substrate the explanation framework runs on.  It
replaces the SQL Server instance of the paper's prototype with
equivalent relational machinery:

* typed relations with primary keys and hash indexes
  (:mod:`~repro.engine.relation`),
* schemas with standard and back-and-forth foreign keys
  (:mod:`~repro.engine.schema`),
* hash joins, semijoins, antijoins and full outer joins
  (:mod:`~repro.engine.joins`),
* group-by and ``WITH CUBE`` (:mod:`~repro.engine.groupby`,
  :mod:`~repro.engine.cube`),
* the universal relation and the Yannakakis full reducer
  (:mod:`~repro.engine.universal`, :mod:`~repro.engine.reduction`).
"""

from .aggregates import (
    AGGREGATE_KINDS,
    AggregateSpec,
    agg_avg,
    agg_max,
    agg_min,
    agg_sum,
    count_distinct,
    count_star,
)
from .columnstore import ColumnStore

# The retained row-path oracles (cube_rowwise, cube_bruteforce,
# group_by_rowwise) are deliberately NOT re-exported: only benchmarks
# and the dedicated parity tests may import them, straight from their
# defining modules (enforced by reprolint RL001).
from .cube import (
    cube,
    dummy_rewrite,
    grouping_sets,
    undummy,
)
from .database import Database, Delta
from .expressions import (
    And,
    Arithmetic,
    Col,
    Comparison,
    Const,
    Expression,
    Not,
    Or,
    Unary,
    conj,
    disj,
    exp,
    lift,
    log,
    neg,
)
from .groupby import group_by, scalar_aggregate
from .joins import antijoin, full_outer_join, full_outer_join_many, hash_join, natural_join, semijoin
from .relation import Relation
from .schema import (
    Attribute,
    DatabaseSchema,
    ForeignKey,
    RelationSchema,
    foreign_key,
    make_schema,
    single_table_schema,
)
from .table import Table
from .types import DUMMY, NULL, Row, Value, is_dummy, is_missing, is_null
from .universal import JoinTree, project_universal, qualified_columns, universal_table
from .reduction import (
    database_is_reduced,
    is_semijoin_reduced,
    reduce_row_sets,
    semijoin_reduce,
)
from .storage import (
    load_database,
    load_schema,
    save_database,
    save_schema,
)
from . import fastpath

__all__ = [
    "AGGREGATE_KINDS",
    "AggregateSpec",
    "agg_avg",
    "agg_max",
    "agg_min",
    "agg_sum",
    "count_distinct",
    "count_star",
    "ColumnStore",
    "cube",
    "dummy_rewrite",
    "grouping_sets",
    "undummy",
    "Database",
    "Delta",
    "And",
    "Arithmetic",
    "Col",
    "Comparison",
    "Const",
    "Expression",
    "Not",
    "Or",
    "Unary",
    "conj",
    "disj",
    "exp",
    "lift",
    "log",
    "neg",
    "group_by",
    "scalar_aggregate",
    "antijoin",
    "full_outer_join",
    "full_outer_join_many",
    "hash_join",
    "natural_join",
    "semijoin",
    "Relation",
    "Attribute",
    "DatabaseSchema",
    "ForeignKey",
    "RelationSchema",
    "foreign_key",
    "make_schema",
    "single_table_schema",
    "Table",
    "DUMMY",
    "NULL",
    "Row",
    "Value",
    "is_dummy",
    "is_missing",
    "is_null",
    "JoinTree",
    "project_universal",
    "qualified_columns",
    "universal_table",
    "database_is_reduced",
    "is_semijoin_reduced",
    "reduce_row_sets",
    "semijoin_reduce",
    "load_database",
    "load_schema",
    "save_database",
    "save_schema",
    "fastpath",
]
