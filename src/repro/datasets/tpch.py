"""A seeded TPC-H workload with the real 8-table foreign-key graph.

Unlike the other bundled generators, the schema here is *cyclic*: the
standard TPC-H keys close one cycle
(lineitem–orders–customer–nation–supplier–partsupp — the "partsupp
diamond"), so the schema is declared with ``require_acyclic=False``
and the universal relation enforces the cycle-closing key as a
residual-edge filter (:mod:`repro.engine.universal`).  Semantically
the full natural join keeps exactly the lineitems whose supplier sits
in the ordering customer's nation — TPC-H Q5's "local supplier" join —
and every universal row is determined by its lineitem tuple, which is
what keeps Algorithm 1's additive cube exact on this schema (the
intervention over ``U`` removes whole lineitem rows, never partial
join combinations).

Scale factors are miniaturized: ``sf`` ∈ {0.01, 0.05, 0.1} give
roughly 1k / 5k / 10k total rows (the engine is pure Python; real
TPC-H row counts are out of scope).  Generation is *prefix-stable*:
every entity draws from its own ``sha256``-derived sub-RNG, so a
larger scale factor extends the smaller one's tables instead of
reshuffling them — row counts are monotone in ``sf`` by construction,
and ``generate(sf, seed)`` is bit-deterministic per ``(sf, seed)``.

Planted phenomena, each carrying a known top explanation:

* **Europe bump** — EUROPE order volume ramps up in 1996–1998, driven
  hardest by FRANCE (then GERMANY).  ``europe_bump_question`` /
  ``region_share_question`` rank ``Nation.name = FRANCE`` first.
* **Returned-item share** — BUILDING-segment customers return ~45% of
  their lineitems vs an 8% baseline; ``returned_share_question``
  ranks ``Customer.mktsegment = BUILDING`` first.
* **PROMO parts in ASIA** — CHINA (strongly) and JAPAN (mildly)
  prefer PROMO-type parts; ``promo_share_question`` (a 5+-table join
  through partsupp and part) ranks ``Nation.name = CHINA`` first.
* **Urgent air freight** — 1-URGENT orders ship AIR ~55% of the time
  vs a uniform baseline (``urgent_air_question``).
* **Brand#3 premium** — Brand#3 parts carry a 3× unit price
  (``brand_revenue_question``, a ``sum`` question).

The cyclic join graph is also why the convergence certificate selects
the Proposition 3.4 ``n − 1`` fallback: the sharp bounds
(3.5/3.10/3.11) assume a join tree, and the analyzer says so (RS009)
instead of special-casing the schema.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.numquery import (
    AggregateQuery,
    double_ratio_query,
    ratio_query,
)
from ..core.question import UserQuestion
from ..engine.aggregates import agg_sum, count_star
from ..engine.database import Database
from ..engine.expressions import Col, Comparison, Const, Expression, conj
from ..engine.schema import DatabaseSchema, ForeignKey, make_schema

#: The supported miniature scale factors (any positive sf works).
SCALE_FACTORS = (0.01, 0.05, 0.1)

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

#: The 25 standard TPC-H nations with their region assignment.
NATIONS: Tuple[Tuple[str, str], ...] = (
    ("ALGERIA", "AFRICA"),
    ("ARGENTINA", "AMERICA"),
    ("BRAZIL", "AMERICA"),
    ("CANADA", "AMERICA"),
    ("EGYPT", "MIDDLE EAST"),
    ("ETHIOPIA", "AFRICA"),
    ("FRANCE", "EUROPE"),
    ("GERMANY", "EUROPE"),
    ("INDIA", "ASIA"),
    ("INDONESIA", "ASIA"),
    ("IRAN", "MIDDLE EAST"),
    ("IRAQ", "MIDDLE EAST"),
    ("JAPAN", "ASIA"),
    ("JORDAN", "MIDDLE EAST"),
    ("KENYA", "AFRICA"),
    ("MOROCCO", "AFRICA"),
    ("MOZAMBIQUE", "AFRICA"),
    ("PERU", "AMERICA"),
    ("CHINA", "ASIA"),
    ("ROMANIA", "EUROPE"),
    ("SAUDI ARABIA", "MIDDLE EAST"),
    ("VIETNAM", "ASIA"),
    ("RUSSIA", "EUROPE"),
    ("UNITED KINGDOM", "EUROPE"),
    ("UNITED STATES", "AMERICA"),
)

SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
PART_TYPES = ("ECONOMY", "STANDARD", "PROMO")
BRANDS = ("Brand#1", "Brand#2", "Brand#3", "Brand#4", "Brand#5")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
SHIPMODES = ("AIR", "RAIL", "SHIP", "TRUCK")
YEARS = tuple(range(1992, 1999))
EARLY_WINDOW = (1992, 1995)
LATE_WINDOW = (1996, 1998)

#: Per-nation late-window ramp (orders per customer-year added per
#: year past 1995).  FRANCE is the planted top explanation; the gap to
#: GERMANY is deliberately wide so Poisson noise in the small
#: segment × window cells cannot outrank the planted driver.
_RAMP: Dict[str, float] = {"FRANCE": 3.0, "GERMANY": 0.8}
_EU_DEFAULT_RAMP = 0.2
_BASE_ORDER_RATE = 0.8

#: PROMO-part preference multiplier by customer nation.
_PROMO_WEIGHT: Dict[str, float] = {"CHINA": 8.0, "JAPAN": 3.0}

#: Probability a lineitem's supplier is local to the customer's
#: nation.  Only local lineitems appear in the universal relation (the
#: cycle-closing key), so this keeps U(D) well populated.
_LOCAL_SUPPLIER_P = 0.65

_RETURN_P_BUILDING = 0.45
_RETURN_P_BASE = 0.08
_URGENT_AIR_P = 0.55


def schema() -> DatabaseSchema:
    """The 8 TPC-H relations with the real (cyclic) foreign-key graph.

    Lineitem is declared first so the join tree roots there: every
    join step is then 1:1 from the lineitem side (fact-table-first)
    and the intermediate universal table never exceeds the lineitem
    count.  The BFS tree reaches nation through customer, leaving
    ``supplier.nationkey -> nation`` as the cycle-closing residual
    edge.
    """
    return DatabaseSchema(
        (
            make_schema(
                "Lineitem",
                [
                    "orderkey",
                    "linenumber",
                    "partkey",
                    "suppkey",
                    "quantity",
                    "extendedprice",
                    "returnflag",
                    "shipmode",
                ],
                ["orderkey", "linenumber"],
                dtypes={
                    "orderkey": "int",
                    "linenumber": "int",
                    "partkey": "int",
                    "suppkey": "int",
                    "quantity": "int",
                    "extendedprice": "float",
                    "returnflag": "str",
                    "shipmode": "str",
                },
            ),
            make_schema(
                "Orders",
                ["orderkey", "custkey", "status", "priority", "oyear"],
                ["orderkey"],
                dtypes={
                    "orderkey": "int",
                    "custkey": "int",
                    "status": "str",
                    "priority": "str",
                    "oyear": "int",
                },
            ),
            make_schema(
                "Customer",
                ["custkey", "name", "nationkey", "mktsegment"],
                ["custkey"],
                dtypes={
                    "custkey": "int",
                    "name": "str",
                    "nationkey": "int",
                    "mktsegment": "str",
                },
            ),
            make_schema(
                "Nation",
                ["nationkey", "name", "regionkey"],
                ["nationkey"],
                dtypes={"nationkey": "int", "name": "str", "regionkey": "int"},
            ),
            make_schema(
                "Region",
                ["regionkey", "name"],
                ["regionkey"],
                dtypes={"regionkey": "int", "name": "str"},
            ),
            make_schema(
                "Supplier",
                ["suppkey", "name", "nationkey"],
                ["suppkey"],
                dtypes={"suppkey": "int", "name": "str", "nationkey": "int"},
            ),
            make_schema(
                "Partsupp",
                ["partkey", "suppkey", "supplycost"],
                ["partkey", "suppkey"],
                dtypes={
                    "partkey": "int",
                    "suppkey": "int",
                    "supplycost": "float",
                },
            ),
            make_schema(
                "Part",
                ["partkey", "name", "brand", "type", "size"],
                ["partkey"],
                dtypes={
                    "partkey": "int",
                    "name": "str",
                    "brand": "str",
                    "type": "str",
                    "size": "int",
                },
            ),
        ),
        (
            ForeignKey("Lineitem", ("orderkey",), "Orders", ("orderkey",)),
            ForeignKey(
                "Lineitem",
                ("partkey", "suppkey"),
                "Partsupp",
                ("partkey", "suppkey"),
            ),
            ForeignKey("Orders", ("custkey",), "Customer", ("custkey",)),
            ForeignKey("Partsupp", ("partkey",), "Part", ("partkey",)),
            ForeignKey("Partsupp", ("suppkey",), "Supplier", ("suppkey",)),
            ForeignKey("Customer", ("nationkey",), "Nation", ("nationkey",)),
            ForeignKey("Supplier", ("nationkey",), "Nation", ("nationkey",)),
            ForeignKey("Nation", ("regionkey",), "Region", ("regionkey",)),
        ),
        require_acyclic=False,
    )


# -- generation ---------------------------------------------------------------


def _sub_rng(seed: int, *key: object) -> random.Random:
    """A deterministic per-entity RNG, independent of hash seeds.

    Seeding each entity separately makes generation prefix-stable: the
    rows of entity *i* never depend on how many entities exist, so a
    larger scale factor strictly extends a smaller one.
    """
    text = "%d|%s" % (seed, "|".join(str(k) for k in key))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's algorithm; fine for the small rates used here."""
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def _weighted_choice(
    rng: random.Random, items: Sequence[int], weights: Sequence[float]
) -> int:
    total = sum(weights)
    x = rng.random() * total
    for item, w in zip(items, weights):
        x -= w
        if x <= 0:
            return item
    return items[-1]


def table_counts(sf: float) -> Dict[str, int]:
    """Entity counts at scale factor *sf* (monotone in ``sf``).

    The floors keep every nation populated with several customers and
    suppliers even at sf 0.01 — with one customer per nation the
    planted nation-level signals would be confounded with that
    customer's segment draw.
    """
    return {
        "supplier": max(50, int(round(1500 * sf))),
        "part": max(40, int(round(1500 * sf))),
        "customer": max(100, int(round(3000 * sf))),
    }


def _nation_of_supplier(suppkey: int) -> int:
    return (suppkey - 1) % len(NATIONS)


def _nation_of_customer(custkey: int) -> int:
    return (custkey - 1) % len(NATIONS)


def _order_rate(nation: str, region: str, year: int) -> float:
    rate = _BASE_ORDER_RATE
    if region == "EUROPE" and year >= LATE_WINDOW[0]:
        ramp = _RAMP.get(nation, _EU_DEFAULT_RAMP)
        rate += ramp * (year - (LATE_WINDOW[0] - 1))
    return rate


def _unit_price(brand: str, size: int) -> float:
    price = 900.0 + 10.0 * size
    if brand == "Brand#3":
        price *= 3.0
    return price


def generate(sf: float = 0.01, seed: int = 2014) -> Database:
    """Generate the TPC-H instance at scale factor *sf*.

    Deterministic per ``(sf, seed)``; prefix-stable across scale
    factors (see module docstring).  The instance is *not*
    semijoin-reduced: non-local lineitems and never-ordered parts are
    deliberately dangling (program P's rule (i) absorbs them without
    affecting any aggregate over U).
    """
    counts = table_counts(sf)
    region_rows = [(i, name) for i, name in enumerate(REGIONS)]
    region_index = {name: i for i, name in enumerate(REGIONS)}
    nation_rows = [
        (i, name, region_index[region])
        for i, (name, region) in enumerate(NATIONS)
    ]

    supplier_rows = []
    for suppkey in range(1, counts["supplier"] + 1):
        supplier_rows.append(
            (suppkey, f"Supplier#{suppkey:05d}", _nation_of_supplier(suppkey))
        )
    suppliers_by_nation: Dict[int, List[int]] = {}
    for suppkey, _, nationkey in supplier_rows:
        suppliers_by_nation.setdefault(nationkey, []).append(suppkey)

    part_rows = []
    partsupp_rows = []
    parts_by_supplier: Dict[int, List[int]] = {}
    part_info: Dict[int, Tuple[str, str, int]] = {}  # brand, type, size
    for partkey in range(1, counts["part"] + 1):
        rng = _sub_rng(seed, "part", partkey)
        n_suppliers = 2 + rng.randrange(3)  # before any sf-dependent draw
        brand = BRANDS[rng.randrange(len(BRANDS))]
        ptype = PART_TYPES[
            _weighted_choice(rng, range(len(PART_TYPES)), (0.3, 0.45, 0.25))
        ]
        size = 1 + rng.randrange(50)
        part_rows.append(
            (partkey, f"Part#{partkey:05d}", brand, ptype, size)
        )
        part_info[partkey] = (brand, ptype, size)
        chosen = rng.sample(
            range(1, counts["supplier"] + 1),
            min(n_suppliers, counts["supplier"]),
        )
        for suppkey in sorted(chosen):
            partsupp_rows.append(
                (partkey, suppkey, round(rng.uniform(10.0, 1000.0), 2))
            )
            parts_by_supplier.setdefault(suppkey, []).append(partkey)

    customer_rows = []
    order_rows = []
    lineitem_rows = []
    for custkey in range(1, counts["customer"] + 1):
        rng = _sub_rng(seed, "customer", custkey)
        nationkey = _nation_of_customer(custkey)
        nation, region = NATIONS[nationkey]
        # Round-robin, not random: each nation's customers spread
        # evenly over the segments, so the planted nation-level order
        # surge cannot be soaked up by whatever segment the few heavy
        # customers happened to draw.
        segment = SEGMENTS[((custkey - 1) // len(NATIONS)) % len(SEGMENTS)]
        customer_rows.append(
            (custkey, f"Customer#{custkey:06d}", nationkey, segment)
        )
        sequence = 0
        for year in YEARS:
            for _ in range(_poisson(rng, _order_rate(nation, region, year))):
                sequence += 1
                orderkey = custkey * 1000 + sequence
                _make_order(
                    seed,
                    orderkey,
                    custkey,
                    nationkey,
                    segment,
                    year,
                    counts,
                    suppliers_by_nation,
                    parts_by_supplier,
                    partsupp_rows,
                    part_info,
                    order_rows,
                    lineitem_rows,
                )

    database = Database(schema())
    database.relation("Region").insert_many(region_rows)
    database.relation("Nation").insert_many(nation_rows)
    database.relation("Supplier").insert_many(supplier_rows)
    database.relation("Part").insert_many(part_rows)
    database.relation("Partsupp").insert_many(partsupp_rows)
    database.relation("Customer").insert_many(customer_rows)
    database.relation("Orders").insert_many(order_rows)
    database.relation("Lineitem").insert_many(lineitem_rows)
    return database


def _make_order(
    seed: int,
    orderkey: int,
    custkey: int,
    nationkey: int,
    segment: str,
    year: int,
    counts: Dict[str, int],
    suppliers_by_nation: Dict[int, List[int]],
    parts_by_supplier: Dict[int, List[int]],
    partsupp_rows: List[Tuple[int, int, float]],
    part_info: Dict[int, Tuple[str, str, int]],
    order_rows: List[Tuple[int, int, str, str, int]],
    lineitem_rows: List[Tuple[int, int, int, int, int, float, str, str]],
) -> None:
    rng = _sub_rng(seed, "order", orderkey)
    n_lines = 1 + rng.randrange(4)  # drawn first: count is sf-independent
    priority = PRIORITIES[rng.randrange(len(PRIORITIES))]
    status = "F" if year <= 1996 else "O"
    order_rows.append((orderkey, custkey, status, priority, year))
    nation = NATIONS[nationkey][0]
    promo_weight = _PROMO_WEIGHT.get(nation, 1.0)
    for linenumber in range(1, n_lines + 1):
        if rng.random() < _LOCAL_SUPPLIER_P:
            locals_ = suppliers_by_nation[nationkey]
            suppkey = locals_[rng.randrange(len(locals_))]
        else:
            suppkey = 1 + rng.randrange(counts["supplier"])
        catalogue = parts_by_supplier.get(suppkey)
        if catalogue:
            weights = [
                promo_weight if part_info[p][1] == "PROMO" else 1.0
                for p in catalogue
            ]
            partkey = catalogue[
                _weighted_choice(rng, range(len(catalogue)), weights)
            ]
        else:
            # Supplier without a catalogue: fall back to a uniform
            # partsupp entry (the supplier changes with it).
            partkey, suppkey, _ = partsupp_rows[
                rng.randrange(len(partsupp_rows))
            ]
        brand, _ptype, size = part_info[partkey]
        quantity = 1 + rng.randrange(50)
        extendedprice = round(quantity * _unit_price(brand, size), 2)
        return_p = (
            _RETURN_P_BUILDING if segment == "BUILDING" else _RETURN_P_BASE
        )
        if rng.random() < return_p:
            returnflag = "R"
        else:
            returnflag = "N" if rng.random() < 0.7 else "A"
        if priority == "1-URGENT" and rng.random() < _URGENT_AIR_P:
            shipmode = "AIR"
        else:
            shipmode = SHIPMODES[rng.randrange(len(SHIPMODES))]
        lineitem_rows.append(
            (
                orderkey,
                linenumber,
                partkey,
                suppkey,
                quantity,
                extendedprice,
                returnflag,
                shipmode,
            )
        )


# -- planted questions --------------------------------------------------------


def _count(name: str, where: Optional[Expression] = None) -> AggregateQuery:
    return AggregateQuery(name, count_star(name), where)


def _region_window(
    name: str, region: str, window: Tuple[int, int]
) -> AggregateQuery:
    lo, hi = window
    where = conj(
        Comparison("=", Col("Region.name"), Const(region)),
        Comparison(">=", Col("Orders.oyear"), Const(lo)),
        Comparison("<=", Col("Orders.oyear"), Const(hi)),
    )
    return _count(name, where)


def europe_bump_question(*, epsilon: float = 0.0001) -> UserQuestion:
    """Why did EUROPE's late/early order ratio outgrow AMERICA's?

    ``Q = (q1/q2)/(q3/q4)`` over lineitem counts; the planted ramp
    makes ``Nation.name = FRANCE`` the top intervention explanation.
    """
    q1 = _region_window("q1", "EUROPE", LATE_WINDOW)
    q2 = _region_window("q2", "EUROPE", EARLY_WINDOW)
    q3 = _region_window("q3", "AMERICA", LATE_WINDOW)
    q4 = _region_window("q4", "AMERICA", EARLY_WINDOW)
    return UserQuestion.high(
        double_ratio_query(q1, q2, q3, q4, epsilon=epsilon)
    )


def region_share_question(*, epsilon: float = 0.0001) -> UserQuestion:
    """Why is EUROPE's share of (local) lineitems so high?"""
    q1 = _count(
        "q1", Comparison("=", Col("Region.name"), Const("EUROPE"))
    )
    q2 = _count("q2")
    return UserQuestion.high(ratio_query(q1, q2, epsilon=epsilon))


def returned_share_question(*, epsilon: float = 0.0001) -> UserQuestion:
    """Why is the returned-item share so high?

    Planted: BUILDING-segment customers return at ~45% vs 8%, so
    ``Customer.mktsegment = BUILDING`` ranks first.
    """
    q1 = _count(
        "q1", Comparison("=", Col("Lineitem.returnflag"), Const("R"))
    )
    q2 = _count("q2")
    return UserQuestion.high(ratio_query(q1, q2, epsilon=epsilon))


def promo_share_question(*, epsilon: float = 0.0001) -> UserQuestion:
    """Why is ASIA's PROMO-part share above AMERICA's?

    The predicate spans region, nation, customer, orders, lineitem,
    partsupp, and part — the 5+-table join through the partsupp
    diamond.  Planted: CHINA prefers PROMO parts 8×, JAPAN 3×, so
    ``Nation.name = CHINA`` ranks first.

    The question is an odds ratio (PROMO vs non-PROMO per region),
    not a share ratio: removing a part-type-uniform row set scales
    both regions' odds by the same factor and cancels, so only the
    planted nation-level preference can move Q.
    """

    def promo_in(name: str, region: str, promo: bool) -> AggregateQuery:
        op = "=" if promo else "!="
        return _count(
            name,
            conj(
                Comparison("=", Col("Region.name"), Const(region)),
                Comparison(op, Col("Part.type"), Const("PROMO")),
            ),
        )

    q1 = promo_in("q1", "ASIA", True)
    q2 = promo_in("q2", "ASIA", False)
    q3 = promo_in("q3", "AMERICA", True)
    q4 = promo_in("q4", "AMERICA", False)
    return UserQuestion.high(
        double_ratio_query(q1, q2, q3, q4, epsilon=epsilon)
    )


def urgent_air_question(*, epsilon: float = 0.0001) -> UserQuestion:
    """Why do 1-URGENT orders ship AIR so often?"""
    urgent = Comparison("=", Col("Orders.priority"), Const("1-URGENT"))
    q1 = _count(
        "q1",
        conj(
            Comparison("=", Col("Lineitem.shipmode"), Const("AIR")), urgent
        ),
    )
    q2 = _count("q2", urgent)
    return UserQuestion.high(ratio_query(q1, q2, epsilon=epsilon))


def brand_revenue_question(*, epsilon: float = 0.0001) -> UserQuestion:
    """Why is Brand#3's revenue share so high?  (A ``sum`` question.)

    Planted: Brand#3 parts carry a 3× unit price.
    """
    q1 = AggregateQuery(
        "q1",
        agg_sum("Lineitem.extendedprice", "q1"),
        Comparison("=", Col("Part.brand"), Const("Brand#3")),
    )
    q2 = AggregateQuery("q2", agg_sum("Lineitem.extendedprice", "q2"))
    return UserQuestion.high(ratio_query(q1, q2, epsilon=epsilon))


def france_surge_question(*, epsilon: float = 0.0001) -> UserQuestion:
    """Why did FRANCE's late-window volume outgrow its early window?"""

    def window(name: str, window: Tuple[int, int]) -> AggregateQuery:
        lo, hi = window
        return _count(
            name,
            conj(
                Comparison("=", Col("Nation.name"), Const("FRANCE")),
                Comparison(">=", Col("Orders.oyear"), Const(lo)),
                Comparison("<=", Col("Orders.oyear"), Const(hi)),
            ),
        )

    q1 = window("q1", LATE_WINDOW)
    q2 = window("q2", EARLY_WINDOW)
    return UserQuestion.high(ratio_query(q1, q2, epsilon=epsilon))


#: question name -> (builder, explanation attributes, planted top).
#: The golden and differential tests iterate this registry.
QUESTIONS: Dict[
    str, Tuple[Callable[..., UserQuestion], Tuple[str, ...], str]
] = {
    "europe-bump": (
        europe_bump_question,
        ("Nation.name", "Customer.mktsegment"),
        "Nation.name = 'FRANCE'",
    ),
    "region-share": (
        region_share_question,
        ("Nation.name", "Customer.mktsegment"),
        "Nation.name = 'FRANCE'",
    ),
    "returned-share": (
        returned_share_question,
        ("Customer.mktsegment", "Lineitem.shipmode"),
        "Customer.mktsegment = 'BUILDING'",
    ),
    "promo-share": (
        promo_share_question,
        ("Nation.name", "Part.type"),
        "Nation.name = 'CHINA'",
    ),
    "urgent-air": (
        urgent_air_question,
        ("Lineitem.shipmode", "Orders.priority"),
        "Lineitem.shipmode = 'AIR'",
    ),
    "brand-revenue": (
        brand_revenue_question,
        ("Part.brand", "Part.type"),
        "Part.brand = 'Brand#3'",
    ),
    "france-surge": (
        france_surge_question,
        ("Customer.mktsegment", "Orders.priority"),
        "",  # no single planted driver; pinned by the golden snapshot
    ),
}


def question(name: str) -> UserQuestion:
    """Build one planted question by registry name."""
    builder, _, _ = QUESTIONS[name]
    return builder()


def question_attributes(name: str) -> List[str]:
    """The explanation attributes paired with one planted question."""
    _, attributes, _ = QUESTIONS[name]
    return list(attributes)


def default_attributes() -> List[str]:
    """Attributes of the default (europe-bump) question."""
    return question_attributes("europe-bump")


def default_question(*, epsilon: float = 0.0001) -> UserQuestion:
    """The registry/CLI default: the Europe bump."""
    return europe_bump_question(epsilon=epsilon)
