"""Coordinating with black-box agents over the wire.

Each party runs its own agent as a small line-delimited-JSON server; the
coordinator only ever sees plans, prices, fees, and accept/decline answers,
never costs or capacities.  Each query carries the penalty rho, so the
coordinator rebalances it mid-run as it does in process, and the wire run
reproduces the in-process run bit for bit.  The settlement closes with a
single take-it-or-leave-it offer that bundles the externality payment and
the activity fee.
"""

import numpy as np

from coplan import (
    AgentServer,
    ConsensusConfig,
    RemoteAgent,
    RetailerAgent,
    RetailerSpec,
    SupplierAgent,
    SupplierSpec,
    run_consensus,
    standalone_plans,
    supplier_utility,
    vcg_transfers,
)
from coplan.mechanism import FeePolicy

retailer = RetailerSpec(demand=[40, 60], arc_costs=[[1, 5], [2, 3]],
                        gross_profit=[20, 20], lost_sales_penalty=1000)
supplier = SupplierSpec(capacities=[100, 10], arc_costs=[[10, 5], [1, 2]],
                        gross_profit=[20, 20])

status_quo = standalone_plans(retailer, supplier)
reservation = supplier_utility(supplier, status_quo.supplier_plan).value
config = ConsensusConfig(eps_abs=1e-6, eps_rel=1e-6, adapt_rho=True,
                         initial_plan=np.array([40.0, 60.0]))

servers = [AgentServer(RetailerAgent(retailer)).start(),
           AgentServer(SupplierAgent(supplier), reservation=reservation).start()]
print("agent servers listening on", [s.address for s in servers])

remotes = [RemoteAgent(s.address, dim=2) for s in servers]
try:
    penalties = []
    wire = run_consensus(remotes, config, trace=lambda record: penalties.append(record["rho"]))
    print(f"wire consensus: plan {np.round(wire.plan, 4)} "
          f"in {wire.iterations} iterations, rho {config.rho} -> {penalties[-1]}")

    local = run_consensus([RetailerAgent(retailer), SupplierAgent(supplier)], config)
    print("bit-for-bit match with the in-process run:",
          bool(np.array_equal(wire.plan, local.plan)))

    settlement = vcg_transfers(retailer, supplier, status_quo, wire.plan,
                               FeePolicy.additive(50.0))
    accepted = remotes[1].offer(settlement.plan, settlement.transfer_supplier)
    print(f"offer: plan {np.round(settlement.plan, 2)} at "
          f"${settlement.transfer_supplier:,.2f} -> "
          f"{'accepted' if accepted else 'declined'}")
finally:
    for r in remotes:
        r.close()
    for s in servers:
        s.stop()
