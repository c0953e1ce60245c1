#!/usr/bin/env python3
"""Build and run the LoPC benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds perfbench/lopcbench.exe from source with dune, then runs
it with the same arguments plus the host's CPU count and the git commit.
The benchmark's stdout is passed through unchanged; its last line is the
JSON result. Build output goes to stderr. Traced runs write Chrome trace
JSON under perfbench/out/.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "lopcbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def git_sha():
    # Only a checkout that is itself a git work tree has a commit to report.
    if not os.path.exists(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the repository root: %s is missing" % needed)
    env = dict(os.environ)
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/lopcbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed with exit code %d" % build.returncode)
    args = [EXE] + sys.argv[1:] + [
        "--nproc", str(len(os.sched_getaffinity(0))),
        "--git-sha", git_sha(),
    ]
    proc = subprocess.Popen(args, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
