"""Finding the jointly efficient plan without sharing private data.

A coordinator repeatedly sends each agent a price vector and a proposed
consensus plan; each agent answers with the maximizer of its utility minus
the price charge minus a quadratic disagreement penalty.  Averaging the
answers and adjusting prices by the disagreement drives both agents to the
plan maximizing their summed utilities.
"""

import numpy as np

from coplan import (
    ConsensusConfig,
    RetailerAgent,
    RetailerSpec,
    SupplierAgent,
    SupplierSpec,
    run_consensus,
)

retailer = RetailerSpec(demand=[40, 60], arc_costs=[[1, 5], [2, 3]],
                        gross_profit=[20, 20], lost_sales_penalty=1000)
supplier = SupplierSpec(capacities=[100, 10], arc_costs=[[10, 5], [1, 2]],
                        gross_profit=[20, 20])

trace_rows = []
config = ConsensusConfig(eps_abs=1e-6, eps_rel=1e-6,
                         initial_plan=np.array([40.0, 60.0]))
result = run_consensus([RetailerAgent(retailer), SupplierAgent(supplier)],
                       config, trace=trace_rows.append)

print(f"converged in {result.iterations} iterations: plan {np.round(result.plan, 4)}")
# the coordinator learns only the plan; pricing it takes each side's own data
retailer_value, supplier_value = retailer(result.plan).value, supplier(result.plan).value
print(f"retailer utility ${retailer_value:,.2f}, supplier utility ${supplier_value:,.2f}, "
      f"joint ${retailer_value + supplier_value:,.2f}")
print("\niteration trace (every 20th):")
for row in trace_rows[::20]:
    z = ", ".join(f"{v:8.3f}" for v in row["z"])
    print(f"  it {row['iteration']:4d}  z = [{z}]  "
          f"r_primal {row['r_primal']:.2e}  r_dual {row['r_dual']:.2e}")
print("\nStarting from the retailer's standalone order (40, 60), the "
      "iteration settles on (10, 90): the supplier's cheap capacity at "
      "inbound node 2 outweighs the retailer's routing preference.")
