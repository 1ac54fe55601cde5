"""Calibration kernels: fixed work, owned by the benchmark, timed next to
every measured pass so that the CPU speed the pass ran at is known.

The virtual machine the benchmark was tuned on runs the same code up to
twice as slow at some moments as at others, and the slow spells last from
seconds to many minutes.  Medians over one run remove the fast jitter but
not a slow spell that covers the run.  So the harness times one of these
kernels before every pass and after the last one.  A pass's speed factor is
the kernel's nominal time over the geometric mean of the kernel times
nearest the pass, and the harness reports each time multiplied by that
factor: seconds at the nominal speed.

Each kernel copies the operation mix and array shapes of the code its
workload spends its time in (the split-value lattice rollback at batch
width 500 or 1, the explicit FD march on 401 nodes), so that a slow spell
slows kernel and pass alike.  Set-up is calibrated by a fresh interpreter
that imports numpy and scipy.  The kernels import nothing from cblab: a
change to the program cannot change them, and their nominal times are
constants.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np


def _rollback(m: int, steps: int, layers: int) -> float:
    """`layers` backward-induction layers from the top of an (m, steps+1)
    split-value tree: discount both parts, clip, mark where conversion binds."""
    spots = 80.0 + 40.0 * np.linspace(0.0, 1.0, m)
    up = 1.0025
    j = np.arange(steps + 1)
    E = np.maximum(spots[:, None] * up ** (2.0 * j - steps)[None, :] - 100.0, 0.0)
    B = np.full((m, steps + 1), 100.0)
    scratch, v_buf, vstar_buf, conv_buf = (np.empty((m, steps + 1)) for _ in range(4))
    for i in range(steps - 1, steps - 1 - layers, -1):
        w = i + 1
        for X, disc in ((E, 0.99995), (B, 0.9999)):
            Xw = X[:, :w]
            np.multiply(X[:, 1 : w + 1], 0.51, out=scratch[:, :w])
            np.multiply(Xw, 0.49, out=Xw)
            np.add(Xw, scratch[:, :w], out=Xw)
            np.multiply(Xw, disc, out=Xw)
        Ew, Bw = E[:, :w], B[:, :w]
        conv = conv_buf[:, :w]
        np.multiply(spots[:, None], up ** (2.0 * np.arange(w) - i)[None, :], out=conv)
        V = v_buf[:, :w]
        np.add(Ew, Bw, out=V)
        v_star = vstar_buf[:, :w]
        np.minimum(V, 130.0, out=v_star)
        np.maximum(v_star, 90.0, out=v_star)
        np.maximum(v_star, conv, out=v_star)
        cont = (V <= 130.0) & (v_star == V)
        not_cont = ~cont
        convb = not_cont & (v_star == conv)
        np.copyto(Ew, 0.0, where=not_cont)
        np.copyto(Ew, conv, where=convb)
        np.copyto(Bw, 0.0, where=not_cont)
        if convb.any():
            np.copyto(Bw, 0.0, where=convb)
    return float(E[:, 0].sum() + B[:, 0].sum())


def _march(n_s: int, layers: int) -> float:
    """`layers` steps of an explicit three-point march of a value/debt pair
    on `n_s` nodes, with boundary rows and a clip at every step."""
    S = np.linspace(0.0, 400.0, n_s)
    S_int = S[1:-1]
    cu, cd = 2e-5 * S_int, 1.8e-5 * S_int
    cm = 1.0 - cu - cd
    conv = 0.5 * S_int
    V = np.maximum(S - 100.0, 100.0)
    B = np.full(n_s, 100.0)
    for _ in range(layers):
        V_new = np.empty_like(V)
        B_new = np.empty_like(B)
        V_new[1:-1] = cu * V[2:] + cm * V[1:-1] + cd * V[:-2] - 1e-6 * B[1:-1]
        B_new[1:-1] = cu * B[2:] + cm * B[1:-1] + cd * B[:-2]
        V, B = V_new, B_new
        V[0] = B[0] = 100.0
        V[-1], B[-1] = 0.5 * S[-1], 0.0
        v_star = np.maximum(np.maximum(np.minimum(V[1:-1], 130.0), 90.0), conv)
        B[1:-1] = np.where(v_star == conv, 0.0, B[1:-1])
        V[1:-1] = v_star
    return float(V.sum())


def _point(repeats: int) -> float:
    """Full width-1 rollbacks at N=500: per-call numpy dispatch, as in a quote."""
    return sum(_rollback(1, 500, 500) for _ in range(repeats))


def _imports() -> None:
    """A fresh interpreter that imports the libraries cblab is built on and exits."""
    subprocess.run([sys.executable, "-c", "import numpy, scipy.special"], check=True, timeout=60)


# name -> (kernel, its time in seconds at nominal speed: the median on the
# 2-vCPU Intel Xeon virtual machine the benchmark was tuned on, quiet spell)
KERNELS = {
    "batch": (lambda: _rollback(500, 500, 48), 0.31),
    "point": (lambda: _point(14), 0.20),
    "march": (lambda: (_march(401, 6000), _rollback(71, 500, 150)), 0.21),
    "imports": (_imports, 0.45),
}


class Calibrator:
    """Times one kernel; `factors(times)` turns the kernel times taken
    before each of n passes and after the last (n + 1 of them) into the n
    passes' speed factors.

    A pass's factor uses the four kernel times nearest it, two before and
    two after (fewer at the ends of a run).  The speed changes within a
    pass, so the two times right around it judge it little better than
    their neighbours do, and four times halve the kernel's own jitter."""

    def __init__(self, name: str):
        self.name = name
        self.kernel, self.nominal = KERNELS[name]

    def time(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def factors(self, times: list[float]) -> list[float]:
        out = []
        for i in range(len(times) - 1):
            near = times[max(i - 1, 0) : i + 3]
            out.append(self.nominal / math.prod(near) ** (1.0 / len(near)))
        return out
