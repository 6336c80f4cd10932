"""Child process that times macfade's set-up: import, config parse, channel build.

Usage: python3 setup_probe.py SRC_DIR CONFIG_PATH
Prints the elapsed seconds, measured from the first statement of this
script, so interpreter start-up is not included, and the same time at the
reference host speed of ``hostspeed``, from ``SPIN_SAMPLES`` timings of its
loop made after the set-up.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402

SPIN_SAMPLES = 30


def main() -> int:
    src, config_path = sys.argv[1:3]
    sys.path.insert(0, src)
    from macfade import cli

    cli.load_config(config_path)
    elapsed = time.perf_counter() - _STARTED

    import statistics

    import hostspeed

    spins = []
    for _ in range(SPIN_SAMPLES):
        started = time.perf_counter()
        hostspeed.spin()
        spins.append(time.perf_counter() - started)
    print(repr(elapsed), repr(elapsed * hostspeed.REF_SPIN_S / statistics.median(spins)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
