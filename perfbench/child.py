"""One untraced `ecac` command in a fresh interpreter.

    python3 perfbench/child.py TIMES_JSON ECAC_ARGS...

Writes CLOCK_MONOTONIC stamps (imports done, command start, command end)
and this process's peak resident set to TIMES_JSON, and exits with the
command's exit code. The parent stamps the spawn, so set-up time covers
interpreter start plus ``import ecac.cli``.

The peak is VmHWM, the high-water mark of this process's own address
space. The ``ru_maxrss`` that ``wait4`` returns is not used: Linux keeps
the spawning process's high-water mark across fork and exec, so a child
of a large parent would report the parent's size.
"""

import json
import sys
import time

import ecac.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    times_path, argv = sys.argv[1], sys.argv[2:]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    code = ecac.cli.main(argv)
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(times_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "imported": IMPORTED,
                "start": start,
                "end": end,
                "peak_rss_kb": peak_rss_kb(),
                "module": ecac.cli.__file__,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
