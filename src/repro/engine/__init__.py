"""``repro.engine`` — a from-scratch in-memory relational engine.

This package is the substrate the explanation framework runs on.  It
replaces the SQL Server instance of the paper's prototype with
equivalent relational machinery:

* typed relations with primary keys and hash indexes
  (:mod:`~repro.engine.relation`),
* schemas with standard and back-and-forth foreign keys
  (:mod:`~repro.engine.schema`),
* the full outer join of Algorithm 1 (:mod:`~repro.engine.joins`),
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

from .cube import cube, dummy_rewrite, grouping_sets
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
from .joins import full_outer_join, full_outer_join_many
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
from .universal import JoinTree, universal_table
from .reduction import reduce_row_sets, semijoin_reduce
from .storage import save_database, save_schema
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
    "full_outer_join",
    "full_outer_join_many",
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
    "universal_table",
    "reduce_row_sets",
    "semijoin_reduce",
    "save_database",
    "save_schema",
    "fastpath",
]
