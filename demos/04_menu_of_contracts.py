"""A menu of priced plans as an indirect implementation.

Instead of running the full coordination loop, the retailer can publish a
short menu: each plan is priced at the retailer's utility drop for adopting
it, plus the flat activity fee.  Every option then leaves the retailer
equally well off, so the supplier's selfish pick maximizes joint surplus,
and the efficient plan wins whenever it is on the menu.
"""

from coplan import (
    RetailerSpec,
    SupplierSpec,
    build_menu,
    default_menu_plans,
    standalone_plans,
    supplier_choose,
    supplier_utility,
)

retailer = RetailerSpec(demand=[40, 60], arc_costs=[[1, 5], [2, 3]],
                        gross_profit=[20, 20], lost_sales_penalty=1000)
supplier = SupplierSpec(capacities=[100, 10], arc_costs=[[10, 5], [1, 2]],
                        gross_profit=[20, 20])

status_quo = standalone_plans(retailer, supplier)
plans = default_menu_plans(status_quo.retailer_plan, [10.0, 90.0])
menu = build_menu(retailer, status_quo, plans, alpha=50.0)
reservation = supplier_utility(supplier, status_quo.supplier_plan).value

print("menu offered to the supplier (alpha = $50):")
for k, (plan, fee) in enumerate(zip(menu.plans, menu.fees)):
    print(f"  option {k + 1}: plan {plan} at fee ${fee:,.2f}")

choice = supplier_choose(supplier, menu, reservation=reservation)
print(f"\nsupplier reservation value (standalone): ${reservation:,.2f}")
for k, net in enumerate(choice.option_nets):
    mark = "  <- chosen" if k == choice.index else ""
    print(f"  option {k + 1} nets the supplier ${net:,.2f}{mark}")
print(f"\nchosen plan {choice.plan} at fee ${choice.fee:,.2f}: "
      "the menu implements the same plan the coordination loop finds.")
