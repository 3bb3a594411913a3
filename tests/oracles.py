"""Independent brute-force reference implementations for the kernel tests.

Everything here is written as plain nested loops with sequential Python
float accumulation, deliberately ignoring vectorization, so the production
kernels can be checked against an implementation too simple to be wrong.
"""

import numpy as np


def conv1d_oracle(x, w, b, stride):
    cin, length = x.shape
    fout, _, k = w.shape
    lout = (length - k) // stride + 1
    out = np.empty((fout, lout), dtype=x.dtype)
    for f in range(fout):
        for t in range(lout):
            acc = b[f]
            for c in range(cin):
                for j in range(k):
                    acc = acc + x[c, t * stride + j] * w[f, c, j]
            out[f, t] = acc
    return out


def conv2d_oracle(x, w, b):
    cin, h, wd = x.shape
    fout = w.shape[0]
    xpad = np.zeros((cin, h + 2, wd + 2), dtype=x.dtype)
    xpad[:, 1:-1, 1:-1] = x
    out = np.empty((fout, h, wd), dtype=x.dtype)
    for f in range(fout):
        for r in range(h):
            for s in range(wd):
                acc = b[f]
                for c in range(cin):
                    for i in range(3):
                        for j in range(3):
                            acc = acc + xpad[c, r + i, s + j] * w[f, c, i, j]
                out[f, r, s] = acc
    return out


def maxpool2d_oracle(x, window):
    h, w = window
    c, hin, win = x.shape
    hout, wout = hin // h, win // w
    out = np.empty((c, hout, wout), dtype=x.dtype)
    for ch in range(c):
        for r in range(hout):
            for s in range(wout):
                best = x[ch, r * h, s * w]
                for i in range(h):
                    for j in range(w):
                        v = x[ch, r * h + i, s * w + j]
                        if v > best:
                            best = v
                out[ch, r, s] = best
    return out


def adaptive_pool_bins(length, target):
    return [((i * length) // target, ((i + 1) * length) // target)
            for i in range(target)]


def adaptive_maxpool_oracle(x, target, axis):
    xm = np.moveaxis(x, axis, -1)
    length = xm.shape[-1]
    out = np.empty(xm.shape[:-1] + (target,), dtype=x.dtype)
    for idx in np.ndindex(xm.shape[:-1]):
        for i, (lo, hi) in enumerate(adaptive_pool_bins(length, target)):
            best = xm[idx + (lo,)]
            for p in range(lo + 1, hi):
                v = xm[idx + (p,)]
                if v > best:
                    best = v
            out[idx + (i,)] = best
    return np.moveaxis(out, -1, axis)


def maxpool2d_grad_oracle(x, window, g):
    """Input gradient of maxpool2d for output gradient ``g``: each window's
    gradient goes to its first maximum in raster order (rows outer)."""
    h, w = window
    c, hin, win = x.shape
    gx = np.zeros_like(x)
    for ch in range(c):
        for r in range(hin // h):
            for s in range(win // w):
                best = (r * h, s * w)
                for i in range(h):
                    for j in range(w):
                        if x[ch, r * h + i, s * w + j] > x[(ch,) + best]:
                            best = (r * h + i, s * w + j)
                gx[(ch,) + best] = g[ch, r, s]
    return gx


def adaptive_maxpool_grad_oracle(x, target, axis, g):
    """Input gradient of adaptive_maxpool for output gradient ``g``: each
    bin's gradient goes to its lowest-index maximum."""
    xm = np.moveaxis(x, axis, -1)
    gm = np.moveaxis(g, axis, -1)
    gx = np.zeros_like(xm)
    for idx in np.ndindex(xm.shape[:-1]):
        for i, (lo, hi) in enumerate(adaptive_pool_bins(xm.shape[-1], target)):
            best = lo
            for p in range(lo + 1, hi):
                if xm[idx + (p,)] > xm[idx + (best,)]:
                    best = p
            gx[idx + (best,)] = gm[idx + (i,)]
    return np.moveaxis(gx, -1, axis)
