"""Brute-force oracles for the tests.

The naive convolutions here are written with plain Python loops over
every output element and tap, deliberately sharing no code (and no
accumulation strategy) with the package, so they can serve as the
second, independent route in dual-route checks.  The windowed tap loop
keeps conv_ref's accumulation order on purpose: conv_ref must match it
byte for byte, except for the sign bit of a nan that an inf * 0 leaves
meeting a nan operand.  It skips no tap, where conv_ref skips the taps whose
products are all +-0 (a filter entry +-0 for every output, or reads of
padding only): adding +-0 to an accumulator that starts at +0.0 changes
no bit, so with finite operands the two agree byte for byte, and with an
inf or a nan in either operand conv_ref skips nothing.  The
impulse-response ERF runs the package's forward routes, one probe pixel
at a time, as the cross-check of its adjoint.
The shift indices are a plan's tables read back as indices into the
displacements, and the ordered-policy utilization is the closed form
that coverage's painted grid must reproduce.
"""

import numpy as np

import shiftlab.analysis as an
from shiftlab import SwConfig, strip_conv_ref, sw_forward


def naive_conv2d(x, w, pad_h, pad_w, groups=1):
    """Triple-loop grouped correlation with zero extension."""
    c_in, h, wd = x.shape
    o_out, cpg, kh, kw = w.shape
    out_h = h + 2 * pad_h - kh + 1
    out_w = wd + 2 * pad_w - kw + 1
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
                            y = i + u - pad_h
                            z = j + v - pad_w
                            if 0 <= y < h and 0 <= z < wd:
                                acc += float(w[o, cl, u, v]) * float(x[ci, y, z])
                out[o, i, j] = acc
    return out


def naive_depthwise(x, k):
    """Triple-loop depthwise "same" correlation."""
    c, h, w = x.shape
    kh, kw = k.shape[1], k.shape[2]
    return naive_conv2d(x, k.reshape(c, 1, kh, kw), kh // 2, kw // 2, groups=c)


# ---------------------------------------------------------------------------
# the windowed tap loop that conv_ref's whole-row loop must match bytewise
# ---------------------------------------------------------------------------

def windowed_correlate(xpad, filt, out_h, out_w):
    """One scaled accumulate of an (out_h, out_w) window of the padded
    planes xpad (..., cpg, Hp, Wp) per (u, v, input channel) of filt
    (..., cpg, kh, kw), in that order, from +0.0; the leading axes
    broadcast.  It is the reference for conv_ref's tap loop, which runs
    each tap over whole padded rows: every output element must sum the
    same products in the same order, so the outputs match byte for byte."""
    cpg, kh, kw = filt.shape[-3:]
    lead = np.broadcast_shapes(xpad.shape[:-3], filt.shape[:-3])
    acc = np.zeros(lead + (out_h, out_w), dtype=xpad.dtype)
    for u in range(kh):
        for v in range(kw):
            for cl in range(cpg):
                acc += filt[..., cl, u, v, None, None] * xpad[..., cl, u:u + out_h, v:v + out_w]
    return acc


def windowed_conv2d(x, w):
    """conv2d_ref on the windowed loop: grouped "same" correlation of x
    (C, H, W) or (B, C, H, W) with the odd (O, cpg, kh, kw) bank w."""
    o_out, cpg, kh, kw = w.shape
    lead, (c_in, h, wd) = x.shape[:-3], x.shape[-3:]
    groups = c_in // cpg
    xpad = np.pad(x, ((0, 0),) * (x.ndim - 2) + ((kh // 2,) * 2, (kw // 2,) * 2))
    out = windowed_correlate(xpad.reshape(lead + (groups, 1, cpg) + xpad.shape[-2:]),
                             w.astype(x.dtype).reshape(groups, o_out // groups, cpg, kh, kw),
                             h, wd)
    return out.reshape(lead + (o_out, h, wd))


def windowed_fanout(x, w, pad):
    """fanout_conv on the windowed loop: x (C, H, W), w (C, g, kh, kw) and
    pad ((top, bottom), (left, right))."""
    h, wd = x.shape[1:]
    kh, kw = w.shape[2:]
    (pt, pb), (pl, pr) = pad
    out_h, out_w = h + pt + pb - kh + 1, wd + pl + pr - kw + 1
    xpad = np.pad(x, ((0, 0), (pt, pb), (pl, pr)))
    return windowed_correlate(xpad[:, None, None], w.astype(x.dtype)[:, :, None], out_h, out_w)


# ---------------------------------------------------------------------------
# shift indices of a plan
# ---------------------------------------------------------------------------

def shift_indices(cfg, plan):
    """(sigma_h, sigma_w): the shift index in [0, g) of every entry of the
    plan's tables, d[sigma_h] == disp_h and d[g - 1 - sigma_w] == disp_w
    for cfg's displacements d = k * N - delta_p."""
    return ((plan.disp_h + cfg.delta_p) // cfg.n,
            cfg.g - 1 - (plan.disp_w + cfg.delta_p) // cfg.n)


# ---------------------------------------------------------------------------
# coverage in closed form
# ---------------------------------------------------------------------------

def ordered_utilization(m, n, h):
    """Closed form for the ordered policy: (H - |kN - delta_p|) / H per map."""
    return [max(0, h - abs(d)) / h for d in SwConfig(m=m, n=n, channels=1).displacements()]


# ---------------------------------------------------------------------------
# ERF by impulse responses
# ---------------------------------------------------------------------------

def erf_map_impulse(stack, probe_size=15):
    """Brute-force ERF: one forward pass per probe pixel, each component by
    its forward route (`strip_conv_ref` for a ConvLayer, `sw_forward` for an
    SwLayer), normalised like `analysis.erf_map`."""
    channels = an._erf_channels(stack, probe_size)
    mid = probe_size // 2
    out = np.zeros((probe_size, probe_size), dtype=np.float64)
    for i in range(probe_size):
        for j in range(probe_size):
            y = np.zeros((channels, probe_size, probe_size), dtype=np.float64)
            y[:, i, j] = 1.0
            for layer in stack:
                y = strip_conv_ref(y, layer.kernel) if isinstance(layer, an.ConvLayer) \
                    else sw_forward(y, layer.weights, layer.cfg, layer.plan)
            out[i, j] = np.abs(y[:, mid, mid]).mean()
    peak = out.max()
    return out / peak if peak > 0 else out
