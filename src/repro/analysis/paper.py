"""The accuracies reported in the paper's tables and figures.

Every benchmark prints the paper's reported numbers next to the values
measured on this reproduction's scaled-down substrate (see "What this
reproduction substitutes" in README.md), so the reader can compare the
*shape* of each result -- which method wins, how accuracy moves with the
privacy level and the Byzantine fraction -- rather than the absolute
numbers.

The values below are transcribed from the paper (arXiv:2304.09762v1):
Tables 2-6 and 15-17 verbatim, Figures 1-4 as the approximate levels the
plotted curves sit at (the paper does not tabulate the figure data).
"""

from __future__ import annotations

__all__ = [
    "TABLE1_PROPERTIES",
    "TABLE2_VS_GUERRAOUI",
    "TABLE3_VS_ZHU_LING",
    "TABLE4_SIDE_EFFECT",
    "TABLE5_TTBB",
    "TABLE6_GAMMA",
    "TABLE15_DP_COST_IID",
    "TABLE17_AUX_MISMATCH",
    "FIGURE1_LABEL_FLIP",
    "FIGURE2_MAJORITY",
    "FIGURE3_OPTIMAL_BASE_LR",
    "FIGURE4_CONVERGENCE_EPOCHS",
]

#: Table 1 -- qualitative comparison: does each method provide DP, and does
#: it stay resilient past 50% Byzantine workers?
TABLE1_PROPERTIES: dict[str, dict[str, bool]] = {
    "krum": {"private": False, "majority_resilient": False},
    "median": {"private": False, "majority_resilient": False},
    "trimmed_mean": {"private": False, "majority_resilient": False},
    "fltrust": {"private": False, "majority_resilient": True},
    "signsgd_dp": {"private": True, "majority_resilient": False},
    "dp_krum": {"private": True, "majority_resilient": False},
    "two_stage (ours)": {"private": True, "majority_resilient": True},
}

#: Table 2 -- comparison with Guerraoui et al. [30] on Fashion.
#: rows: (method, byzantine fraction, epsilon, attack) -> accuracy
TABLE2_VS_GUERRAOUI: dict[tuple[str, float, float, str], float] = {
    ("dp_krum [30]", 0.4, 3.46, "alittle"): 0.61,
    ("dp_krum [30]", 0.2, 7.58, "alittle"): 0.78,
    ("dp_krum [30]", 0.4, 3.46, "inner"): 0.75,
    ("dp_krum [30]", 0.2, 7.58, "inner"): 0.79,
    ("ours", 0.6, 2.0, "alittle"): 0.79,
    ("ours", 0.4, 2.0, "alittle"): 0.80,
    ("ours", 0.6, 2.0, "inner"): 0.80,
    ("ours", 0.4, 2.0, "inner"): 0.80,
}

#: Table 3 -- comparison with Zhu & Ling [77] on MNIST under Gaussian attack.
TABLE3_VS_ZHU_LING: dict[tuple[str, float, float], float] = {
    ("signsgd_dp [77]", 0.1, 0.21): 0.20,
    ("signsgd_dp [77]", 0.1, 0.40): 0.43,
    ("ours", 0.6, 0.125): 0.86,
    ("ours", 0.4, 0.125): 0.86,
}

#: Table 4 -- "side-effect" test: Reference Accuracy vs the protocol applied
#: with 60% nominal (but honest-behaving) Byzantine workers.
#: dataset -> epsilon -> (reference, protocol)
TABLE4_SIDE_EFFECT: dict[str, dict[float, tuple[float, float]]] = {
    "mnist_like": {0.125: (0.88, 0.85), 0.5: (0.95, 0.94), 2.0: (0.96, 0.96)},
    "colorectal_like": {0.125: (0.49, 0.44), 0.5: (0.66, 0.67), 2.0: (0.74, 0.74)},
    "fashion_like": {0.125: (0.69, 0.69), 0.5: (0.77, 0.77), 2.0: (0.80, 0.80)},
    "usps_like": {0.125: (0.64, 0.58), 0.5: (0.82, 0.81), 2.0: (0.87, 0.87)},
}

#: Table 5 -- adaptive (TTBB) Label-flipping attack with 60% Byzantine workers.
#: dataset -> epsilon -> {ttbb -> accuracy}
TABLE5_TTBB: dict[str, dict[float, dict[float, float]]] = {
    "mnist_like": {2.0: {0.0: 0.96, 0.2: 0.96, 0.4: 0.96, 0.6: 0.96, 0.8: 0.96},
                   0.125: {0.0: 0.82, 0.2: 0.82, 0.4: 0.81, 0.6: 0.81, 0.8: 0.82}},
    "colorectal_like": {2.0: {0.0: 0.74, 0.2: 0.74, 0.4: 0.73, 0.6: 0.73, 0.8: 0.73},
                        0.125: {0.0: 0.45, 0.2: 0.41, 0.4: 0.45, 0.6: 0.44, 0.8: 0.43}},
    "fashion_like": {2.0: {0.0: 0.80, 0.2: 0.80, 0.4: 0.80, 0.6: 0.80, 0.8: 0.80},
                     0.125: {0.0: 0.68, 0.2: 0.68, 0.4: 0.68, 0.6: 0.69, 0.8: 0.69}},
    "usps_like": {2.0: {0.0: 0.86, 0.2: 0.86, 0.4: 0.86, 0.6: 0.86, 0.8: 0.86},
                  0.125: {0.0: 0.60, 0.2: 0.60, 0.4: 0.57, 0.6: 0.57, 0.8: 0.60}},
}

#: Table 6 -- ablation on the belief gamma with 50% honest workers
#: (Label-flipping attack, i.i.d.).  dataset -> epsilon -> {gamma -> accuracy}
TABLE6_GAMMA: dict[str, dict[float, dict[float, float]]] = {
    "mnist_like": {0.125: {0.2: 0.86, 0.35: 0.87, 0.5: 0.88, 0.65: 0.85, 0.8: 0.83},
                   2.0: {0.2: 0.95, 0.35: 0.96, 0.5: 0.96, 0.65: 0.96, 0.8: 0.95}},
    "colorectal_like": {0.125: {0.2: 0.48, 0.35: 0.47, 0.5: 0.49, 0.65: 0.45, 0.8: 0.34},
                        2.0: {0.2: 0.73, 0.35: 0.74, 0.5: 0.74, 0.65: 0.73, 0.8: 0.74}},
    "fashion_like": {0.125: {0.2: 0.66, 0.35: 0.69, 0.5: 0.69, 0.65: 0.70, 0.8: 0.69},
                     2.0: {0.2: 0.78, 0.35: 0.79, 0.5: 0.80, 0.65: 0.79, 0.8: 0.79}},
    "usps_like": {0.125: {0.2: 0.64, 0.35: 0.63, 0.5: 0.64, 0.65: 0.56, 0.8: 0.54},
                  2.0: {0.2: 0.85, 0.35: 0.86, 0.5: 0.87, 0.65: 0.87, 0.8: 0.85}},
}

#: Table 15 -- the utility cost of DP (no attack, no defense), i.i.d. setting.
#: dataset -> {epsilon (None = non-private) -> accuracy}
TABLE15_DP_COST_IID: dict[str, dict[float | None, float]] = {
    "mnist_like": {None: 0.98, 2.0: 0.96, 1.0: 0.95, 0.5: 0.95, 0.25: 0.93, 0.125: 0.88},
    "colorectal_like": {None: 0.80, 2.0: 0.74, 1.0: 0.70, 0.5: 0.66, 0.25: 0.56, 0.125: 0.50},
    "fashion_like": {None: 0.88, 2.0: 0.80, 1.0: 0.79, 0.5: 0.78, 0.25: 0.75, 0.125: 0.70},
    "usps_like": {None: 0.92, 2.0: 0.87, 1.0: 0.86, 0.5: 0.82, 0.25: 0.76, 0.125: 0.64},
}

#: Table 17 -- auxiliary data drawn from a different data space (KMNIST),
#: epsilon = 2.  dataset -> {(attack, byzantine fraction) -> accuracy}
TABLE17_AUX_MISMATCH: dict[str, dict[tuple[str, float], float]] = {
    "mnist_like": {("gaussian", 0.4): 0.09, ("gaussian", 0.2): 0.12,
                   ("label_flip", 0.4): 0.01, ("label_flip", 0.2): 0.07,
                   ("lmp", 0.4): 0.09, ("lmp", 0.2): 0.09},
    "colorectal_like": {("gaussian", 0.4): 0.15, ("gaussian", 0.2): 0.15,
                        ("label_flip", 0.4): 0.07, ("label_flip", 0.2): 0.09,
                        ("lmp", 0.4): 0.12, ("lmp", 0.2): 0.12},
    "fashion_like": {("gaussian", 0.4): 0.10, ("gaussian", 0.2): 0.13,
                     ("label_flip", 0.4): 0.02, ("label_flip", 0.2): 0.06,
                     ("lmp", 0.4): 0.10, ("lmp", 0.2): 0.10},
    "usps_like": {("gaussian", 0.4): 0.10, ("gaussian", 0.2): 0.20,
                  ("label_flip", 0.4): 0.04, ("label_flip", 0.2): 0.08,
                  ("lmp", 0.4): 0.17, ("lmp", 0.2): 0.17},
}

#: Figure 1 -- protocol accuracy under the Label-flipping attack, read off the
#: plotted curves at each privacy level (the curves essentially coincide with
#: the Reference Accuracy).  dataset -> {epsilon -> accuracy}
FIGURE1_LABEL_FLIP: dict[str, dict[float, float]] = {
    "mnist_like": {0.125: 0.87, 0.25: 0.93, 0.5: 0.95, 1.0: 0.95, 2.0: 0.96},
    "colorectal_like": {0.125: 0.49, 0.25: 0.56, 0.5: 0.66, 1.0: 0.70, 2.0: 0.74},
    "fashion_like": {0.125: 0.69, 0.25: 0.75, 0.5: 0.78, 1.0: 0.79, 2.0: 0.80},
    "usps_like": {0.125: 0.62, 0.25: 0.76, 0.5: 0.82, 1.0: 0.86, 2.0: 0.87},
}

#: Figure 2 -- same protocol with 90% Byzantine workers: the curves stay close
#: to Figure 1 except at the most extreme privacy levels.
FIGURE2_MAJORITY: dict[str, dict[float, float]] = {
    "mnist_like": {0.125: 0.84, 0.5: 0.94, 2.0: 0.96},
    "colorectal_like": {0.125: 0.42, 0.5: 0.64, 2.0: 0.73},
    "fashion_like": {0.125: 0.66, 0.5: 0.77, 2.0: 0.80},
    "usps_like": {0.125: 0.55, 0.5: 0.80, 2.0: 0.86},
}

#: Figure 3 -- the base learning rate that maximises accuracy is the same at
#: every privacy level once the transfer rule eta = eta_b sigma_b / sigma is
#: applied (0.2 for every dataset in the paper).
FIGURE3_OPTIMAL_BASE_LR: dict[str, float] = {
    "mnist_like": 0.2,
    "colorectal_like": 0.2,
    "fashion_like": 0.2,
    "usps_like": 0.2,
}

#: Figure 4 -- convergence: training essentially converges within the first
#: few epochs (the paper plots 8-10 epochs).
FIGURE4_CONVERGENCE_EPOCHS: dict[str, int] = {
    "mnist_like": 8,
    "colorectal_like": 10,
    "fashion_like": 8,
    "usps_like": 10,
}
