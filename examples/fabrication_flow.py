"""Walk through the decoder-aware MSPT doping plan (Figs. 2 and 4).

Reproduces the paper's worked examples end to end on a small ternary
half cave: the pattern matrix is mapped to final doping levels through
the device physics (Prop. 1), the per-step dose plan is solved
(Prop. 2), and the fabrication complexity Phi is counted from the step
doses (Def. 4).

Run:  python examples/fabrication_flow.py
"""

import numpy as np

from repro import DopingPlan
from repro.codes import GrayCode
from repro.fabrication import fabrication_complexity, step_complexities


def show_matrix(label: str, matrix: np.ndarray, fmt: str) -> None:
    print(f"{label}:")
    for row in matrix:
        print("   [" + " ".join(format(v, fmt) for v in row) + "]")


def main() -> None:
    # -- the decoder doping plan (ternary Gray code) ------------------------
    code = GrayCode(n=3, length=2)   # reflected on the wire: M = 4 regions
    plan = DopingPlan.from_code(code, nanowires=8)
    print(f"Code: {code.name}, {code.size} addresses, "
          f"M = {code.total_length} doping regions")

    show_matrix("\nPattern matrix P (digits)", plan.pattern, "d")
    show_matrix("Final doping D (1e18 cm^-3)", plan.final / 1e18, "6.2f")
    show_matrix("Step doses S (1e18 cm^-3)", plan.steps / 1e18, "6.2f")
    print(f"\nProp. 2 check (suffix sums reproduce D): {plan.verify()}")

    # -- complexity: one litho/implant pass per distinct dose -----------------
    phi = step_complexities(plan.steps)
    print(f"Per-step complexity phi: {phi.tolist()}  "
          f"-> Phi = {fabrication_complexity(plan.steps)}")


if __name__ == "__main__":
    main()
