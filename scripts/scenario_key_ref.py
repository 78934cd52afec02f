#!/usr/bin/env python3
"""An implementation of the scenario key (crates/core/src/cache.rs,
`scenario_fingerprint`) independent of the crate, for the hand-built
scenario of `cache::tests::scenario_key_value_is_pinned`. Prints the key.

Usage: python3 scripts/scenario_key_ref.py
"""
import struct

MASK = (1 << 64) - 1
SEED = 0x243F6A8885A308D3  # fractional digits of pi
MUL = 0x9E3779B97F4A7C15  # fractional digits of the golden ratio


def folded_multiply(x, y):
    full = x * y
    return (full & MASK) ^ (full >> 64)


def key(words):
    state = SEED
    for w in words:
        state = folded_multiply(state ^ w, MUL)
    return state


def flow(size, first_hop, last_hop, arrival=5, nic_cap=10_000_000_000, latency=2000, ideal_fct=3000):
    digest = key([size, arrival, nic_cap, latency, ideal_fct])
    return [digest, first_hop | last_hop << 32]


def f32_bits(v):
    return struct.unpack("<I", struct.pack("<f", v))[0]


link_bw, link_delay = [10_000_000_000, 25_000_000_000], [1000, 1500]
fg, bg = [flow(1000, 0, 1)], [flow(7000, 1, 1)]
spec, use_context = [0.5, 0.25, 0.0, 1.0], 1

words = [len(link_bw)] + link_bw + link_delay
words += [len(fg)] + [w for f in fg for w in f]
words += [len(bg), sum(key([rank] + f) for rank, f in enumerate(bg)) & MASK]
words += [8000, 10_000_000_000, len(spec)] + [f32_bits(v) for v in spec] + [use_context]
print(f"{key(words):#018x}")
