"""Convergence of located poles to the closed-form high-energy laws.

For each class the found poles are compared against the corresponding
predictor; the scaled error column divides by the stated remainder scale
(n^-1 ln n, n^-1, n^-3), so a bounded column means the law captures the
true rate.

Run:  python demos/asymptotic_convergence.py
"""

import math

from winterres import (Channel, GpiParams, classify, compare, find_poles,
                       index_poles, predict)

CH = Channel(0, 1.0)


def convergence_table(label: str, p: GpiParams, re_max: float, lo: int, hi: int):
    poles = find_poles(p, CH, re_max=re_max)
    poles = index_poles(poles, p, CH)
    rows = [r for r in compare(poles, p, CH) if lo <= r.index <= hi]
    print(f"\n{label}  ({classify(p).value}; indices {lo}..{hi})")
    print(f"{'n':>4} {'Re k found':>12} {'Im k found':>12} {'Im k pred':>12} "
          f"{'abs err':>10} {'scaled':>8}")
    for r in rows[:: max(1, len(rows) // 8)]:
        print(f"{r.index:>4} {r.k.real:12.5f} {r.k.imag:12.6f} "
              f"{r.k_pred.imag:12.6f} {r.abs_err:10.2e} {r.scaled_err:8.3g}")
    print(f"     max scaled error over shown range: "
          f"{max(r.scaled_err for r in rows):.3g}")


# delta: the real parts drift onto the lattice like 1/n while the widths
# follow the logarithmic law
convergence_table("shell barrier alpha = 50", GpiParams(50, 0, 0),
                  re_max=41 * math.pi + 0.75 * math.pi + 0.6, lo=10, hi=40)

# intermediate: for l = 0 the width law is exact, so the errors sit at the
# floor of the root solver
convergence_table("mixed coupling gamma = 1 + i", GpiParams(0, 0, 1 + 1j),
                  re_max=40.5 * math.pi + 0.7, lo=20, hi=40)

# delta-prime: next-order prediction, remainder n^-3
convergence_table("derivative coupling beta = 0.1", GpiParams(0, 0.1, 0),
                  re_max=81 * math.pi + 0.5 * math.pi + 0.6, lo=40, hi=80)

print("\nlifetime ordering at n = 100 (momentum-plane widths):")
for label, p in (("delta", GpiParams(50, 0, 0)),
                 ("intermediate", GpiParams(0, 0, 1 + 1j)),
                 ("delta-prime", GpiParams(0, 0.1, 0))):
    k = predict(p, CH, 100).k_pred
    print(f"  {label:13s} |Im k_100| = {abs(k.imag):.5f}")
