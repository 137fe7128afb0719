"""Independent brute-force oracles for the tests.

The naive convolutions here are written with plain Python loops over
every output element and tap, deliberately sharing no code (and no
accumulation strategy) with the package, so they can serve as the
second, independent route in dual-route checks.
"""

import numpy as np


def naive_conv2d(x, w, pad_h, pad_w, stride=1, groups=1):
    """Triple-loop grouped correlation with zero extension."""
    c_in, h, wd = x.shape
    o_out, cpg, kh, kw = w.shape
    out_h = (h + 2 * pad_h - kh) // stride + 1
    out_w = (wd + 2 * pad_w - kw) // stride + 1
    opg = o_out // groups
    out = np.zeros((o_out, out_h, out_w), dtype=np.float64)
    for o in range(o_out):
        grp = o // opg
        for i in range(out_h):
            for j in range(out_w):
                acc = 0.0
                for cl in range(cpg):
                    ci = grp * cpg + cl
                    for u in range(kh):
                        for v in range(kw):
                            y = i * stride + u - pad_h
                            z = j * stride + v - pad_w
                            if 0 <= y < h and 0 <= z < wd:
                                acc += float(w[o, cl, u, v]) * float(x[ci, y, z])
                out[o, i, j] = acc
    return out


def naive_depthwise(x, k):
    """Triple-loop depthwise "same" correlation."""
    c, h, w = x.shape
    kh, kw = k.shape[1], k.shape[2]
    return naive_conv2d(x, k.reshape(c, 1, kh, kw), kh // 2, kw // 2,
                        stride=1, groups=c)
