"""Scenario documents for the three benchmark workloads.

Every item is a plain scenario document (the JSON the ``coplan`` CLI reads),
so the program receives only generated inputs.  Nothing here runs coplan:
the round of a workload is a function of the seed alone.

- ``settle`` and ``wire`` run a fixed corpus drawn once from ``CORPUS_SEED``;
  the run's seed sets the order of the round.  An item of the corpus that
  hits a known fault therefore fails on every seed, and the failed share of a
  run does not depend on the seed.
- ``rolling`` draws a fresh round of episodes from the seed.

The pair distribution is that of ``tests/conftest.random_bilateral``: node
counts uniform from 1, demands and capacities uniform on 0..100, arc costs
on 1..10, gross profits on 12..30 and a 1000 $/unit lost-sales penalty.
``settle`` uses up to 5 nodes a side without covering demand, as acceptance
criterion 3 does, so some pairs are short of capacity at the distribution's
own rate.  ``wire`` uses the small pairs (2-3 inbound nodes, up to 3 regions
and sources, demand covered) of the family the best-response reproducer
comes from.  The fee mix and the fee parameters have no source; they cycle
evenly over the variants.

Rounds of ``settle`` and ``wire`` also carry the fixed reproducer of the
known fault each reaches, stored under ``faults/``.
"""

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("settle", "rolling", "wire")

ANALYSES = {
    "settle": ["jit", "firstbest", "vcg", "menu"],
    "rolling": ["dynamic"],
    "wire": ["jit", "firstbest", "vcg"],
}

# Runs of these workloads complete 100 items or more in 20 s, so they report
# a true 90th percentile; wire reports the median in its place.  Fixed per
# workload, so a change in speed cannot switch the statistic between two
# runs being compared.
P90_WORKLOADS = ("settle", "rolling")

CORPUS_SEED = 20240518
CORPUS_SIZE = {"settle": 300, "wire": 48}
ROLLING_ROUND = 120

FEE_VARIANTS = ("none", "additive", "multiplicative", "roi", "linear_deviation")

# The consensus block of the bundled ``toy`` scenario.
CONSENSUS = {"rho": 1.0, "eps_abs": 1e-6, "eps_rel": 1e-6, "max_iters": 5000,
             "adapt_rho": False}

_PENALTY = 1000.0
FAULT_DIR = Path(__file__).resolve().parent / "faults"
# workload -> names of the known faults whose fixed reproducer it runs
FAULTS = {"settle": ("northwest-corner-index",), "rolling": (),
          "wire": ("best-response-gap-tolerance",)}


def bilateral(rng, inbound, max_nodes, cover_demand):
    """Retailer and supplier blocks of one pair, drawn like
    ``tests/conftest.random_bilateral`` with ``inbound`` nodes."""
    I = int(rng.integers(*inbound))
    J = int(rng.integers(1, max_nodes + 1))
    K = int(rng.integers(1, max_nodes + 1))
    demand = rng.integers(0, 101, size=J).astype(float)
    caps = rng.integers(0, 101, size=K).astype(float)
    if cover_demand and caps.sum() < demand.sum():
        caps[int(rng.integers(0, K))] += demand.sum() - caps.sum() + float(rng.integers(0, 20))
    retailer = {
        "demand": demand.tolist(),
        "arc_costs": rng.integers(1, 11, size=(I, J)).astype(float).tolist(),
        "gross_profit_per_unit": rng.integers(12, 31, size=J).astype(float).tolist(),
        "lost_sales_penalty": _PENALTY,
    }
    supplier = {
        "capacities": caps.tolist(),
        "arc_costs": rng.integers(1, 11, size=(K, I)).astype(float).tolist(),
        "gross_profit_per_unit": rng.integers(12, 31, size=I).astype(float).tolist(),
    }
    return retailer, supplier


def _fee(rng, variant):
    if variant == "none":
        return {"variant": "none"}
    if variant == "additive":
        return {"variant": "additive", "alpha": round(float(rng.uniform(0.0, 60.0)), 2)}
    if variant == "multiplicative":
        return {"variant": "multiplicative", "beta": round(float(rng.uniform(0.05, 0.5)), 3)}
    if variant == "roi":
        return {"variant": "roi", "roi_rate": round(float(rng.uniform(0.05, 0.5)), 3)}
    over = round(float(rng.uniform(0.5, 3.0)), 2)
    return {"variant": "linear_deviation", "over_rate": over,
            "under_rate": round(float(rng.uniform(0.0, over)), 2)}


def _doc(name, retailer, supplier, fee, mode, dynamic=None):
    return {"name": name, "retailer": retailer, "supplier": supplier, "fee": fee,
            "menu_plans": None, "dynamic": dynamic, "consensus": dict(CONSENSUS),
            "mode": mode}


def corpus(workload):
    """The fixed item documents of ``settle`` or ``wire``."""
    rng = np.random.default_rng([CORPUS_SEED, WORKLOADS.index(workload)])
    docs = []
    for k in range(CORPUS_SIZE[workload]):
        if workload == "settle":
            retailer, supplier = bilateral(rng, (1, 6), 5, cover_demand=False)
            fee = _fee(rng, FEE_VARIANTS[k % len(FEE_VARIANTS)])
            docs.append(_doc(f"settle-{k}", retailer, supplier, fee, "centralized"))
        else:
            retailer, supplier = bilateral(rng, (2, 4), 3, cover_demand=True)
            fee = _fee(rng, "additive" if k % 2 else "none")
            docs.append(_doc(f"wire-{k}", retailer, supplier, fee, "protocol"))
    return docs


# The bundled toy pair: the rolling workload reads only the dynamic block,
# but a scenario document always names both parties.
_TOY_RETAILER = {"demand": [40.0, 60.0], "arc_costs": [[1.0, 5.0], [2.0, 3.0]],
                 "gross_profit_per_unit": [20.0, 20.0], "lost_sales_penalty": _PENALTY}
_TOY_SUPPLIER = {"capacities": [100.0, 10.0], "arc_costs": [[10.0, 5.0], [1.0, 2.0]],
                 "gross_profit_per_unit": [20.0, 20.0]}


def rolling_item(rng, k, seed):
    """One episode with the cost ranges of acceptance criterion 5; one in six
    uses ``full-horizon`` commitment, its ratio of 20 to 100 episodes."""
    weeks = 5
    forecasts = rng.uniform(2.0, 20.0, size=weeks)
    demand = np.maximum(forecasts + rng.normal(0.0, 3.0, size=weeks), 0.0)
    dynamic = {
        "forecasts": forecasts.tolist(),
        "horizon": 4,
        "holding_cost": float(rng.uniform(0.2, 2.0)),
        "lost_sales_cost": float(rng.uniform(3.0, 12.0)),
        "retailer_margin": float(rng.uniform(4.0, 12.0)),
        "supplier_margin": float(rng.uniform(0.5, 5.0)),
        "smoothing_cost": float(rng.uniform(0.05, 2.0)),
        "initial_inventory": float(rng.uniform(0.0, 5.0)),
        "demand_path": demand.tolist(),
        "commitment": "full-horizon" if k % 6 == 5 else "none",
    }
    return _doc(f"rolling-{seed}-{k}", _TOY_RETAILER, _TOY_SUPPLIER, {"variant": "none"},
                "centralized", dynamic=dynamic)


def fault_items(workload):
    """[(fault name, document of its fixed reproducer)] for ``workload``."""
    return [(name, json.loads((FAULT_DIR / f"{name}.json").read_text()))
            for name in FAULTS[workload]]


def round_items(workload, seed):
    """The round a run of ``workload`` repeats: a list of ``{"doc", "expect"}``
    where ``expect`` names the known fault of a fixed reproducer, else None."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "rolling":
        docs = [rolling_item(rng, k, seed) for k in range(ROLLING_ROUND)]
    else:
        fixed = corpus(workload)
        docs = [fixed[k] for k in rng.permutation(len(fixed))]
    return ([{"doc": doc, "expect": fault} for fault, doc in fault_items(workload)]
            + [{"doc": doc, "expect": None} for doc in docs])
