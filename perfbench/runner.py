"""Running dsx commands: as fresh processes, or in-process for tracing."""

from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

COMMAND_TIMEOUT_S = 170


@dataclass
class Op:
    """One dsx command: exit status, parsed report and what it cost."""
    argv: list
    status: int
    report: dict = field(default_factory=dict)
    wall_s: float = 0.0
    rss_mb: float = 0.0
    error: str = ""


class ProcessRunner:
    """Each command is a fresh `python -m dsx.cli` process, as a user runs
    it.  Peak RSS comes from wait4 on that process alone."""

    def __init__(self, root, work):
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        # a fixed hash seed makes every process iterate sets of names in
        # the same order
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=src if not path else src + os.pathsep + path)
        self.prefix = [sys.executable, "-m", "dsx.cli"]
        self.work = work

    def dsx(self, argv):
        argv = ["--format", "structured"] + list(argv)
        out_path = os.path.join(self.work, "stdout.txt")
        err_path = os.path.join(self.work, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self.prefix + argv, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self.env)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        op = Op(argv, proc.returncode, wall_s=wall,
                rss_mb=usage.ru_maxrss / 1024.0)
        with open(out_path) as fh:
            text = fh.read()
        with open(err_path) as fh:
            err_text = fh.read()
        try:
            op.report = json.loads(text) if text.strip() else {}
        except json.JSONDecodeError:
            op.error = "unparsable report"
        if op.status != 0:
            op.error = (op.error + " " + err_text[-300:]).strip()
        return op


class InProcessRunner:
    """Runs commands through dsx.cli.run in this process, under a tracer;
    each command's spans share the command's id."""

    def __init__(self, tracer):
        from dsx import cli
        self.cli = cli
        self.tracer = tracer
        self.ops = []

    def dsx(self, argv, label=None):
        argv = ["--format", "structured"] + list(argv)
        self.tracer.command = len(self.ops)
        self.ops.append(label or argv[2])
        gc.collect()
        start = time.perf_counter()
        try:
            status, report = self.cli.run(argv, stream=io.StringIO())
            error = ""
        except Exception as exc:  # a crash is a failed operation, not ours
            status, report, error = -1, {}, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        self.tracer.command = None
        return Op(argv, status, report, wall_s=wall, error=error)
