#!/usr/bin/env python3
"""Check the ``%.9g`` kernel against Python's ``%`` on float32 bit patterns.

Every finite float32 whose bit pattern lies in [--start, --stop) goes
through ``csvfmt.format_g9`` in chunks. The tokens the kernel formats must
equal ``'%.9g\\n' % v`` byte for byte; the values it leaves to the fallback
are counted. The whole range is 0..2**32; two processes can split it:

  PYTHONPATH=src python scripts/check_g9_exhaustive.py --start 0 --stop 2147483648
  PYTHONPATH=src python scripts/check_g9_exhaustive.py --start 2147483648

Prints one summary line and exits 1 at the first chunk that differs.
"""

import argparse
import sys
import time

import numpy as np

from mlpcascade import csvfmt

CHUNK = 1 << 18


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--stop", type=int, default=1 << 32)
    args = ap.parse_args()
    if not 0 <= args.start <= args.stop <= 1 << 32:
        ap.error("need 0 <= start <= stop <= 2**32")
    line_end = np.array([True])
    checked = fallback_count = 0
    t0 = time.perf_counter()
    for lo in range(args.start, args.stop, CHUNK):
        bits = np.arange(lo, min(lo + CHUNK, args.stop), dtype=np.uint64).astype(np.uint32)
        values = bits.view(np.float32)
        values = values[np.isfinite(values)][:, None]
        if not values.size:
            continue
        records, fallback = csvfmt.format_g9(values, line_end)
        kept = values[~fallback].ravel().tolist()
        expected = (("%.9g\n" * len(kept)) % tuple(kept)).encode()
        got = records.tobytes().translate(None, b"\0")
        if got != expected:
            print(f"mismatch in bit patterns [{lo}, {lo + CHUNK})", file=sys.stderr)
            return 1
        checked += values.size
        fallback_count += int(fallback.sum())
    print(
        f"bit patterns [{args.start}, {args.stop}): {checked} finite values, "
        f"{checked - fallback_count} formatted by the kernel, all equal to '%.9g' % v; "
        f"{fallback_count} left to the fallback; {time.perf_counter() - t0:.0f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
