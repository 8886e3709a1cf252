"""Synthetic DBLP workload with the planted industrial bump (Figures 1–2).

The paper integrates DBLP with an affiliation table and observes that
industrial SIGMOD publications decline after ~2004 while academic ones
keep rising.  This generator plants exactly that phenomenon:

* **industrial labs** (bell-labs.com, ibm.com, ms.com, hp.com) publish
  heavily through the 1990s and early 2000s, then decline;
* **established academic groups** (berkeley.edu, mit.edu, wisc.edu,
  ucla.edu) rise steadily;
* **new academic groups** (asu.edu, utah.edu, gwu.edu) appear around
  2003 and ramp up — the paper's Figure 2 explanations;
* **star authors** (RajeevR at bell-labs, HamidP and RakeshA at ibm)
  have elevated personal rates in the 90s, so they surface as
  author-level explanations.

Schema and foreign keys follow Example 2.2 / Eq. (2): the
``Authored.pubid ↔ Publication.pubid`` key is back-and-forth, and the
bump query uses ``count(distinct Publication.pubid)``, which is
intervention-additive here (footnote 11), so Algorithm 1 applies.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.numquery import AggregateQuery, double_ratio_query
from ..core.question import UserQuestion
from ..engine.aggregates import count_distinct
from ..engine.database import Database
from ..engine.expressions import Col, Comparison, Const, conj
from .running_example import schema as dblp_schema

YEARS = range(1988, 2012)
VENUES = ("SIGMOD", "VLDB")

#: Window used by the bump question (Example 2.2).
EARLY_WINDOW = (2000, 2004)
LATE_WINDOW = (2007, 2011)


@dataclass(frozen=True)
class Institution:
    """One affiliation with a publication-rate profile over years."""

    name: str
    dom: str
    profile: str  # 'industrial', 'established', 'new2000'
    size: int  # number of regular authors
    weight: float  # relative publication volume

    def rate(self, year: int) -> float:
        """Expected publications in *year*, before global scaling."""
        if self.profile == "industrial":
            # Ramp through the 90s, peak ~1996-2003, decline after 2004.
            if year <= 2003:
                level = 0.3 + 0.7 * min(1.0, (year - 1988) / 8)
            else:
                level = max(0.08, 1.0 - 0.16 * (year - 2003))
        elif self.profile == "established":
            level = 0.35 + 0.65 * (year - 1988) / (2011 - 1988)
        elif self.profile == "new2000":
            level = 0.0 if year < 2003 else 0.25 + 0.75 * min(1.0, (year - 2003) / 5)
        else:
            raise ValueError(f"unknown profile {self.profile!r}")
        return level * self.weight


INSTITUTIONS: Tuple[Institution, ...] = (
    Institution("bell-labs.com", "com", "industrial", 8, 1.3),
    Institution("ibm.com", "com", "industrial", 12, 1.5),
    Institution("ms.com", "com", "industrial", 8, 0.9),
    Institution("hp.com", "com", "industrial", 5, 0.5),
    Institution("berkeley.edu", "edu", "established", 10, 1.2),
    Institution("mit.edu", "edu", "established", 9, 1.0),
    Institution("wisc.edu", "edu", "established", 9, 1.0),
    Institution("ucla.edu", "edu", "established", 7, 0.8),
    Institution("asu.edu", "edu", "new2000", 6, 1.0),
    Institution("utah.edu", "edu", "new2000", 5, 0.8),
    Institution("gwu.edu", "edu", "new2000", 4, 0.7),
)

#: Star authors: (name, institution, personal rate multiplier, active years).
STARS: Tuple[Tuple[str, str, float, Tuple[int, int]], ...] = (
    ("RajeevR", "bell-labs.com", 3.0, (1992, 2003)),
    ("HamidP", "ibm.com", 2.5, (1990, 2004)),
    ("RakeshA", "ibm.com", 2.5, (1990, 2003)),
)


def generate(scale: float = 1.0, seed: int = 2014) -> Database:
    """Generate the synthetic DBLP database.

    ``scale`` multiplies publication volume (scale=1.0 ≈ 2.5k papers);
    the same (scale, seed) pair is fully deterministic.
    """
    rng = random.Random(seed)
    star_names = {name for name, _, _, _ in STARS}
    authors: Dict[str, Tuple[str, str, str, str]] = {}
    authored: List[Tuple[str, str]] = []
    publications: List[Tuple[str, int, str]] = []

    def author_pool(inst: Institution) -> List[str]:
        pool = [f"{inst.name.split('.')[0]}_a{i}" for i in range(inst.size)]
        pool.extend(
            name
            for name, star_inst, _, _ in STARS
            if star_inst == inst.name
        )
        return pool

    pools = {inst.name: author_pool(inst) for inst in INSTITUTIONS}
    star_rate = {name: (mult, span) for name, _, mult, span in STARS}

    pub_counter = 0
    for year in YEARS:
        for inst in INSTITUTIONS:
            expected = inst.rate(year) * 10 * scale
            count = _poisson(rng, expected)
            for _ in range(count):
                pub_counter += 1
                pubid = f"P{pub_counter:06d}"
                venue = "SIGMOD" if rng.random() < 0.62 else "VLDB"
                publications.append((pubid, year, venue))
                pub_authors = _pick_authors(
                    rng, inst, pools, star_rate, year
                )
                for name in pub_authors:
                    author_inst = _institution_of(name, inst, star_names)
                    author_id = f"{author_inst}:{name}"
                    dom = "com" if author_inst.endswith(".com") else "edu"
                    authors[author_id] = (author_id, name, author_inst, dom)
                    authored.append((author_id, pubid))

    database = Database(dblp_schema())
    database.relation("Author").insert_many(authors.values())
    database.relation("Publication").insert_many(publications)
    # A (author, pub) pair may repeat when the same author is drawn
    # twice; Relation deduplicates, but the composite pk forbids
    # contradictions anyway.
    database.relation("Authored").insert_many(set(authored))
    return database


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler (lam is small here)."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def _pick_authors(
    rng: random.Random,
    inst: Institution,
    pools: Dict[str, List[str]],
    star_rate: Dict[str, Tuple[float, Tuple[int, int]]],
    year: int,
) -> List[str]:
    """1–3 authors, mostly from *inst*, star-weighted, rare outsiders."""
    pool = pools[inst.name]
    weights = []
    for name in pool:
        if name in star_rate:
            mult, (lo, hi) = star_rate[name]
            weights.append(mult if lo <= year <= hi else 0.3)
        else:
            weights.append(1.0)
    n_authors = rng.choices((1, 2, 3), weights=(0.3, 0.45, 0.25))[0]
    chosen = _weighted_sample(rng, pool, weights, min(n_authors, len(pool)))
    if rng.random() < 0.08:  # occasional cross-institution coauthor
        other = rng.choice([i for i in INSTITUTIONS if i.name != inst.name])
        chosen.append(rng.choice(pools[other.name]))
    return chosen


def _weighted_sample(
    rng: random.Random, pool: Sequence[str], weights: Sequence[float], k: int
) -> List[str]:
    chosen: List[str] = []
    pool = list(pool)
    weights = list(weights)
    for _ in range(k):
        total = sum(weights)
        if total <= 0:
            break
        pick = rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if pick <= acc:
                chosen.append(pool.pop(i))
                weights.pop(i)
                break
    return chosen


def _institution_of(name: str, default: Institution, star_names) -> str:
    if name in star_names:
        for star, inst, _, _ in STARS:
            if star == name:
                return inst
    prefix = name.split("_")[0]
    for inst in INSTITUTIONS:
        if inst.name.split(".")[0] == prefix:
            return inst.name
    return default.name


# -- the bump question (Example 2.2) ------------------------------------------


def _window_query(
    name: str, dom: str, window: Tuple[int, int]
) -> AggregateQuery:
    lo, hi = window
    where = conj(
        Comparison("=", Col("Publication.venue"), Const("SIGMOD")),
        Comparison("=", Col("Author.dom"), Const(dom)),
        Comparison(">=", Col("Publication.year"), Const(lo)),
        Comparison("<=", Col("Publication.year"), Const(hi)),
    )
    return AggregateQuery(
        name, count_distinct("Publication.pubid", name), where
    )


def bump_question(*, epsilon: float = 0.0001) -> UserQuestion:
    """``(Q, high)`` with ``Q = (q1/q2)/(q3/q4)`` — the Figure 1 bump.

    q1/q2: industrial SIGMOD pubs in 2000–04 vs 2007–11;
    q3/q4: academic SIGMOD pubs in the same windows.
    """
    q1 = _window_query("q1", "com", EARLY_WINDOW)
    q2 = _window_query("q2", "com", LATE_WINDOW)
    q3 = _window_query("q3", "edu", EARLY_WINDOW)
    q4 = _window_query("q4", "edu", LATE_WINDOW)
    return UserQuestion.high(double_ratio_query(q1, q2, q3, q4, epsilon=epsilon))


def default_attributes() -> List[str]:
    """Explanation attributes of Figure 2: affiliation and author name."""
    return ["Author.inst", "Author.name"]


def five_year_window_counts(
    database: Database,
) -> Dict[str, List[Tuple[int, int]]]:
    """The Figure 1 series: SIGMOD pubs per 5-year window by domain.

    Returns ``{"com": [(window_end, count), …], "edu": […]}`` counting
    distinct publications with at least one author in the domain.
    """
    from ..engine.universal import universal_table

    u = universal_table(database)
    venue_pos = u.position("Publication.venue")
    year_pos = u.position("Publication.year")
    dom_pos = u.position("Author.dom")
    pub_pos = u.position("Publication.pubid")
    pubs_by_dom_year: Dict[str, Dict[int, set]] = {"com": {}, "edu": {}}
    for row in u.rows():
        if row[venue_pos] != "SIGMOD":
            continue
        pubs_by_dom_year[row[dom_pos]].setdefault(row[year_pos], set()).add(
            row[pub_pos]
        )
    series: Dict[str, List[Tuple[int, int]]] = {}
    for dom, by_year in pubs_by_dom_year.items():
        points = []
        for end in range(min(YEARS) + 4, max(YEARS) + 1):
            window_pubs = set()
            for y in range(end - 4, end + 1):
                window_pubs |= by_year.get(y, set())
            points.append((end, len(window_pubs)))
        series[dom] = points
    return series
