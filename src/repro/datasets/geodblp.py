"""DBLP + Geo-DBLP integration (Section 5.2, Figure 15).

The paper's second DBLP experiment joins **eight** tables — three from
DBLP and five from the Geo-DBLP crawl — and asks why more than half of
the UK's 2001–2011 papers are in PODS rather than SIGMOD.  We mirror
the 8-way acyclic join with:

* DBLP side: ``Author(aid, name, dom)``,
  ``Authored(aid, pubid, gid)``, ``Publication(pubid, year, venueid)``,
  ``Venue(venueid, vname)``;
* Geo side: ``AuthorG(gid, gname, affid)``,
  ``AffiliationG(affid, inst, cityid)``, ``City(cityid, city,
  countryid)``, ``Country(countryid, country)``.

``Authored.pubid ↔ Publication.pubid`` is back-and-forth (authors cause
papers); every other key is standard, so ``count(distinct
Publication.pubid)`` is intervention-additive (footnote 11).

Planted phenomenon: UK institutions host a PODS-heavy theory cluster
centred on Oxford — including both the university (under *two* name
formats, mirroring the paper's remark about 'Oxford Univ.' vs
'University of Oxford') and 'Semmle Ltd.' in the same city — so
``[City.city = Oxford]`` outranks any single institution, exactly the
effect the paper reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.numquery import AggregateQuery, ratio_query
from ..core.question import UserQuestion
from ..engine.aggregates import count_distinct
from ..engine.database import Database
from ..engine.expressions import Col, Comparison, Const, conj, disj
from ..engine.schema import DatabaseSchema, foreign_key, make_schema


def schema() -> DatabaseSchema:
    """The 8-relation integrated schema."""
    return DatabaseSchema(
        (
            make_schema("Author", ["aid", "name", "dom"], ["aid"]),
            make_schema("Authored", ["aid", "pubid", "gid"], ["aid", "pubid"]),
            make_schema("Publication", ["pubid", "year", "venueid"], ["pubid"]),
            make_schema("Venue", ["venueid", "vname"], ["venueid"]),
            make_schema("AuthorG", ["gid", "gname", "affid"], ["gid"]),
            make_schema("AffiliationG", ["affid", "inst", "cityid"], ["affid"]),
            make_schema("City", ["cityid", "city", "countryid"], ["cityid"]),
            make_schema("Country", ["countryid", "country"], ["countryid"]),
        ),
        (
            foreign_key("Authored", "aid", "Author", "aid"),
            foreign_key("Authored", "pubid", "Publication", "pubid", back_and_forth=True),
            foreign_key("Authored", "gid", "AuthorG", "gid"),
            foreign_key("Publication", "venueid", "Venue", "venueid"),
            foreign_key("AuthorG", "affid", "AffiliationG", "affid"),
            foreign_key("AffiliationG", "cityid", "City", "cityid"),
            foreign_key("City", "countryid", "Country", "countryid"),
        ),
    )


@dataclass(frozen=True)
class Site:
    """One (institution, city, country) site with venue preferences."""

    inst: str
    city: str
    country: str
    dom: str
    size: int
    sigmod_rate: float  # expected SIGMOD pubs/year
    pods_rate: float  # expected PODS pubs/year


SITES: Tuple[Site, ...] = (
    # UK: PODS-heavy theory cluster.
    Site("Oxford Univ.", "Oxford", "United Kingdom", "uk", 4, 0.3, 1.6),
    Site("University of Oxford", "Oxford", "United Kingdom", "uk", 3, 0.2, 1.2),
    Site("Semmle Ltd.", "Oxford", "United Kingdom", "uk", 2, 0.1, 0.8),
    Site("Edinburgh Univ.", "Edinburgh", "United Kingdom", "uk", 3, 0.4, 1.0),
    Site("Manchester Univ.", "Manchester", "United Kingdom", "uk", 2, 0.5, 0.4),
    # US / elsewhere: SIGMOD-heavy systems groups.
    Site("UW", "Seattle", "USA", "us", 8, 2.6, 0.7),
    Site("Stanford Univ.", "Palo Alto", "USA", "us", 8, 2.4, 0.8),
    Site("IBM Research", "San Jose", "USA", "us", 7, 2.2, 0.3),
    Site("MIT", "Cambridge", "USA", "us", 7, 2.3, 0.5),
    Site("TU Munich", "Munich", "Germany", "de", 5, 1.6, 0.4),
    Site("INRIA", "Paris", "France", "fr", 5, 1.2, 0.7),
    Site("Tsinghua Univ.", "Beijing", "China", "cn", 5, 1.5, 0.2),
    Site("Technion", "Haifa", "Israel", "il", 4, 0.8, 0.7),
)

YEARS = range(2001, 2012)
VENUE_ROWS = (("V1", "SIGMOD"), ("V2", "PODS"))


def generate(scale: float = 1.0, seed: int = 2014) -> Database:
    """Generate the integrated database (deterministic per (scale, seed))."""
    rng = random.Random(seed)
    db = Database(schema())
    db.relation("Venue").insert_many(VENUE_ROWS)

    countries: Dict[str, str] = {}
    cities: Dict[Tuple[str, str], str] = {}
    affils: Dict[str, str] = {}
    for site in SITES:
        if site.country not in countries:
            countries[site.country] = f"CO{len(countries) + 1}"
            db.relation("Country").insert(
                (countries[site.country], site.country)
            )
        city_key = (site.city, site.country)
        if city_key not in cities:
            cities[city_key] = f"CI{len(cities) + 1}"
            db.relation("City").insert(
                (cities[city_key], site.city, countries[site.country])
            )
        affils[site.inst] = f"AF{len(affils) + 1}"
        db.relation("AffiliationG").insert(
            (affils[site.inst], site.inst, cities[city_key])
        )

    venue_id = {"SIGMOD": "V1", "PODS": "V2"}
    pub_counter = 0
    gid_counter = 0
    inserted_authors = set()
    for site in SITES:
        pool = [f"{site.inst.replace(' ', '')}_{i}" for i in range(site.size)]
        # Geo author records: one per (person, affiliation).
        gids: Dict[str, str] = {}
        for person in pool:
            gid_counter += 1
            gids[person] = f"G{gid_counter}"
            db.relation("AuthorG").insert(
                (gids[person], person, affils[site.inst])
            )
        for year in YEARS:
            for venue, rate in (("SIGMOD", site.sigmod_rate), ("PODS", site.pods_rate)):
                count = _poisson(rng, rate * scale)
                for _ in range(count):
                    pub_counter += 1
                    pubid = f"P{pub_counter:05d}"
                    db.relation("Publication").insert(
                        (pubid, year, venue_id[venue])
                    )
                    n_authors = rng.choices((1, 2, 3), weights=(0.35, 0.45, 0.2))[0]
                    people = rng.sample(pool, min(n_authors, len(pool)))
                    for person in people:
                        aid = f"A:{person}"
                        if aid not in inserted_authors:
                            inserted_authors.add(aid)
                            db.relation("Author").insert(
                                (aid, person, site.dom)
                            )
                        db.relation("Authored").insert(
                            (aid, pubid, gids[person])
                        )
    # Geo records of people who never published (and, at tiny scales,
    # a venue with no papers) would dangle; the framework assumes a
    # semijoin-reduced input (Section 2), so reduce before returning.
    from ..engine.reduction import semijoin_reduce

    reduced, _ = semijoin_reduce(db)
    return reduced


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def uk_question(*, epsilon: float = 0.0001) -> UserQuestion:
    """``(Q, low)``: Q = (UK SIGMOD pubs) / (UK PODS pubs), 2001–2011.

    UK membership is the paper's disjunction
    ``[Author.dom = 'uk' ∨ Country.country = 'United Kingdom']``.
    """
    uk = disj(
        Comparison("=", Col("Author.dom"), Const("uk")),
        Comparison("=", Col("Country.country"), Const("United Kingdom")),
    )
    in_years = conj(
        Comparison(">=", Col("Publication.year"), Const(2001)),
        Comparison("<=", Col("Publication.year"), Const(2011)),
    )
    q1 = AggregateQuery(
        "q1",
        count_distinct("Publication.pubid", "q1"),
        conj(Comparison("=", Col("Venue.vname"), Const("SIGMOD")), uk, in_years),
    )
    q2 = AggregateQuery(
        "q2",
        count_distinct("Publication.pubid", "q2"),
        conj(Comparison("=", Col("Venue.vname"), Const("PODS")), uk, in_years),
    )
    return UserQuestion.low(ratio_query(q1, q2, epsilon=epsilon))


def default_attributes() -> List[str]:
    """The three relevant attributes of Section 5.2."""
    return ["Author.name", "AffiliationG.inst", "City.city"]


def country_venue_percentages(database: Database) -> Dict[str, Dict[str, float]]:
    """The Figure 15a series: % of SIGMOD vs PODS pubs per country."""
    from ..engine.universal import universal_table

    u = universal_table(database)
    country_pos = u.position("Country.country")
    venue_pos = u.position("Venue.vname")
    pub_pos = u.position("Publication.pubid")
    pubs: Dict[str, Dict[str, set]] = {}
    for row in u.rows():
        pubs.setdefault(row[country_pos], {}).setdefault(
            row[venue_pos], set()
        ).add(row[pub_pos])
    out: Dict[str, Dict[str, float]] = {}
    for country, by_venue in pubs.items():
        sigmod = len(by_venue.get("SIGMOD", ()))
        pods = len(by_venue.get("PODS", ()))
        total = sigmod + pods
        if total == 0:
            continue
        out[country] = {
            "SIGMOD": 100.0 * sigmod / total,
            "PODS": 100.0 * pods / total,
        }
    return out
