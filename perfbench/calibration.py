"""Machine-speed calibration for timed rounds.

On the 2-vCPU virtual machine the benchmark was tuned on, other tenants
of the host change how fast a single-threaded Python process runs by up to a
half, for seconds to minutes at a time.  Every round therefore times a
fixed slice of pure-Python work right before and right after its
operations and between them every quarter second: row reduction over
GF(13) with byte tables, tuple sorting, set and dict updates, the
engine's kind of work without the engine.  A round's times are scaled
by REFERENCE_S over the median slice time of that round, and so read as
seconds at the reference speed.

Over 25 s windows of loop-cold rounds, the median round time spread by
15 to 18 % (quartile distance over median) while the median of the
scaled round times spread by 3 to 6 %.  Scaling over a whole run, with
slices taken away from the rounds they correct, did not help.
"""

import time

REFERENCE_S = 0.015  # one slice on that machine when it ran at full speed
P = 13
_MUL = bytes((a * b) % P for a in range(P) for b in range(P))
_SUB = bytes((a - b) % P for a in range(P) for b in range(P))
_INV = bytes([0] + [pow(a, P - 2, P) for a in range(1, P)])


def _rank(rows, d):
    work = [bytearray(r) for r in rows]
    rk = 0
    for col in range(d):
        piv = next((i for i in range(rk, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        pr = work[rk]
        c = _INV[pr[col]]
        for j in range(col, d):
            pr[j] = _MUL[pr[j] * P + c]
        for i in range(rk + 1, len(work)):
            f = work[i][col]
            if f:
                wi = work[i]
                for j in range(col, d):
                    wi[j] = _SUB[wi[j] * P + _MUL[pr[j] * P + f]]
        rk += 1
    return rk


def time_slice(n=300):
    """Seconds one fixed slice of work takes now."""
    t = time.perf_counter()
    seen, counts, x = set(), {}, 1
    for _ in range(n):
        rows = []
        for _ in range(6):
            row = bytearray(6)
            for j in range(6):
                x = (x * 1103515245 + 12345) & 0x7fffffff
                row[j] = x % P
            rows.append(bytes(row))
        key = tuple(sorted(rows))
        seen.add(b"".join(key))
        r = _rank(rows, 6)
        counts[(r, key[0])] = counts.get((r, key[0]), 0) + 1
    return time.perf_counter() - t
