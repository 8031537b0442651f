"""coplan: bilateral supply-plan coordination with truthful settlement.

Agent utilities are values of parameterized transportation LPs, joint plans
come out of an ADMM consensus loop against black-box best-response agents
(in-process or over a line-delimited wire protocol), and settlements price
each side's externality with optional activity fees, contract menus, and
rolling-horizon cost-benefit transfers.
"""

from .consensus import ConsensusConfig, RetailerAgent, SupplierAgent, run_consensus
from .dynamic import InventoryModel, simulate
from .errors import (
    AgentTimeoutError,
    CoplanError,
    DimensionError,
    InfeasibleError,
    NonConvergenceError,
    ParameterError,
    ParseError,
    ProtocolError,
    SchemaError,
)
from .mechanism import (
    FeePolicy,
    budget_balance_check,
    build_menu,
    default_menu_plans,
    efficient_plan,
    standalone_plans,
    supplier_choose,
    vcg_transfers,
)
from .protocol import AgentServer, RemoteAgent
from .transport import (
    RetailerSpec,
    SupplierSpec,
    retailer_utility,
    solve_transport,
    supplier_utility,
)

__version__ = "0.1.0"
