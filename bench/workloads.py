"""The benchmark's workloads: CLI sessions on generated text files.

Every call goes through ``hetecf.cli.main([...])`` in this process with a
``--config`` file, the interface the package keeps stable; keys a later
version stops reading are ignored.  One client issues the calls one
after another (closed loop).  Each call's output is checked here, and a
call counts as failed when it exits non-zero or an output check on it
fails.
"""

import csv
import io
import math
import os
import re
import shutil
import time
import traceback
from contextlib import redirect_stdout

import numpy as np

import networks

# setup_s is the median of at least SETUP_REPEATS set-ups, repeated until
# SETUP_SECONDS have gone into them: a dense set-up takes a third of a
# second, and a median of three such short calls moved with single bursts
# of host load.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
TOP_K = 10
# Top-k calls after each train.  Every workload reports both train_ref and
# topk_p50_ref, so a run's time is split between the two kinds of call:
# on train_dense about 60% trains and 40% queries, on paths_sparse about
# 65% and 35%, which gives each median a dozen samples or more.
QUERIES_PER_CYCLE = {"train_dense": 5, "paths_sparse": 3, "warmup": 1}

DENSE_HP = {"d": 10, "max_inner": 20, "max_outer": 10, "seed": 0}
SPARSE_HP = {"d": 10, "max_inner": 5, "max_outer": 3, "seed": 0}
WARMUP_HP = {"d": 4, "max_inner": 2, "max_outer": 1, "seed": 0}

_TRAIN_LINE = re.compile(r"objective (\S+) -> (\S+), converged=")


class Call:
    def __init__(self, kind):
        self.kind = kind
        self.wall = None
        self.out = ""
        self.problems = []

    @property
    def ok(self):
        return not self.problems

    def check(self, condition, message):
        if not condition:
            self.problems.append(message)
        return condition


class Session:
    """Inputs, configs and call log of one workload in one work directory."""

    def __init__(self, workload, seed, workdir, cli, reference=None):
        self.workload = workload
        self.cli = cli
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        if workload == "paths_sparse":
            net, hp = networks.sparse_network(seed), SPARSE_HP
        elif workload == "warmup":
            net, hp = networks.dense_network(seed, scale=1), WARMUP_HP
        else:
            net, hp = networks.dense_network(seed), DENSE_HP
        self.files = net.write(os.path.join(workdir, "net"))
        self.hp = dict(hp)
        self.use_cache = workload in ("paths_sparse", "warmup")
        self.cache_dir = None
        self.user_ids = net.ids("Author")
        self.item_index = {iid: j for j, iid in enumerate(net.ids("Conf"))}
        self.queries_per_cycle = QUERIES_PER_CYCLE[workload]
        self.rng = np.random.default_rng([seed, 0xC11E])
        self.calls = []
        # With a reference, each call is preceded by one timed reference
        # pass, so the host's speed is sampled as often as the program.
        self.reference = reference
        self.reference_walls = []
        self.setup_j0 = None
        self.final_objective = None
        self.heldout_rmse = None
        self.answers = {}
        self.factors = None

    # -- plumbing -----------------------------------------------------

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _config(self, name, **settings):
        base = {
            "nodes": self.files["nodes"],
            "edges": self.files["edges"],
            "schema": self.files["schema"],
            "paths": self.files["paths"],
            "target_path": networks.TARGET_PATH,
            "hyperparams": dict(self.hp),
        }
        base.update(settings)
        return networks.write_config(self._path(name), base)

    def _run(self, kind, argv):
        if self.reference is not None:
            self.reference_walls.append(self.reference.time())
        call = Call(kind)
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - a crash in the program is a failed call
            code = "exception:\n" + traceback.format_exc()
        call.wall = time.perf_counter() - start
        call.out = buf.getvalue()
        call.check(code == 0, f"{kind}: exit {code}")
        self.calls.append(call)
        return call

    def walls(self, kind):
        return [c.wall for c in self.calls if c.kind == kind]

    # -- the four operations ------------------------------------------

    def setup(self):
        """Zero-iteration train: files -> similarities -> one objective -> model.

        With the cache on, every set-up starts from an empty cache
        directory, which the following train and evaluate calls then read.
        """
        settings = {"model_out": self._path("setup_model.npz")}
        if self.use_cache:
            self.cache_dir = self._path("cache")
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            settings["cache_dir"] = self.cache_dir
        hp = dict(self.hp, max_outer=0)
        cfg = self._config("setup.json", hyperparams=hp, **settings)
        call = self._run("setup", ["train", "--config", cfg])
        if call.ok:
            m = _TRAIN_LINE.search(call.out)
            if call.check(m is not None, "setup: no objective line"):
                self.setup_j0 = m.group(1)
        return call

    def train(self):
        log_out = self._path("train_log.csv")
        model_out = self._path("model.npz")
        cfg = self._config(
            "train.json", model_out=model_out, log_out=log_out, cache_dir=self.cache_dir
        )
        call = self._run("train", ["train", "--config", cfg])
        if not call.ok:
            return call
        m = _TRAIN_LINE.search(call.out)
        if not call.check(m is not None, "train: no objective line"):
            return call
        j0 = float(m.group(1))
        try:
            with open(log_out, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            final = float(rows[-1]["objective"])
        except (OSError, IndexError, KeyError, ValueError) as exc:
            call.check(False, f"train: unreadable training log ({exc})")
            return call
        call.check(math.isfinite(final), f"train: final objective {final!r}")
        call.check(final <= j0, f"train: final objective {final!r} above initial {j0!r}")
        if self.use_cache:
            call.check(
                m.group(1) == self.setup_j0,
                f"train: warm-cache initial objective {m.group(1)} differs from "
                f"the cold-cache set-up's {self.setup_j0}",
            )
        if self.final_objective is not None:
            call.check(
                final == self.final_objective,
                f"train: final objective {final!r} differs from an earlier "
                f"identical run's {self.final_objective!r}",
            )
        self.final_objective = final
        try:
            with np.load(model_out) as data:
                self.factors = (np.array(data["U"]), np.array(data["V"]))
        except (OSError, KeyError, ValueError) as exc:
            call.check(False, f"train: unreadable model file ({exc})")
        return call

    def evaluate(self):
        report_out = self._path("report.csv")
        cfg = self._config(
            "evaluate.json",
            methods=["hete_cf"],
            fractions=[0.8],
            d_values=[int(self.hp["d"])],
            trials=1,
            report_out=report_out,
            cache_dir=self.cache_dir,
        )
        call = self._run("evaluate", ["evaluate", "--config", cfg])
        if not call.ok:
            return call
        rmse = None
        try:
            with open(report_out, encoding="utf-8", newline="") as fh:
                for row in csv.DictReader(fh):
                    if row["method"] == "hete_cf" and row["metric"] == "RMSE":
                        rmse = float(row["mean"])
        except (OSError, KeyError, ValueError) as exc:
            call.check(False, f"evaluate: unreadable report ({exc})")
            return call
        if not call.check(rmse is not None and 0.0 <= rmse <= 1.0,
                          f"evaluate: hete_cf RMSE {rmse!r} outside [0, 1]"):
            return call
        if self.heldout_rmse is not None:
            call.check(rmse == self.heldout_rmse,
                       f"evaluate: RMSE {rmse!r} differs from an earlier "
                       f"identical run's {self.heldout_rmse!r}")
        self.heldout_rmse = rmse
        return call

    def cycle(self, users):
        self.train()
        for user in users:
            self.predict(user)

    def next_user(self):
        return int(self.rng.integers(len(self.user_ids)))

    def predict(self, user):
        cfg = self._config("predict.json", model=self._path("model.npz"), top_k=TOP_K)
        uid = self.user_ids[user]
        call = self._run("predict", ["predict", "--config", cfg, "--user", uid])
        if call.ok:
            self._check_answer(call, user)
        return call

    def _check_answer(self, call, user):
        lines = call.out.splitlines()
        try:
            items = [ln.split("\t")[0] for ln in lines]
            scores = np.array([float(ln.split("\t")[1]) for ln in lines])
        except (IndexError, ValueError):
            call.check(False, f"predict: malformed answer {call.out!r}")
            return
        call.check(len(items) == TOP_K and len(set(items)) == TOP_K,
                   f"predict: expected {TOP_K} distinct items, got {items}")
        call.check(bool(np.all(np.diff(scores) <= 0)),
                   f"predict: scores not non-increasing {scores.tolist()}")
        if self.factors is not None and len(items) == TOP_K:
            U, V = self.factors
            ref = 1.0 / (1.0 + np.exp(-(V @ U[user])))
            picked = [self.item_index.get(i) for i in items]
            if call.check(None not in picked, f"predict: unknown items in {items}"):
                tol = 1e-9
                call.check(bool(np.all(np.abs(ref[picked] - scores) <= tol)),
                           "predict: scores differ from U[u] @ V.T of the model file")
                rest = np.delete(ref, picked)
                call.check(rest.size == 0 or rest.max() <= scores.min() + tol,
                           "predict: an unlisted item outscores the listed top-k")
        earlier = self.answers.setdefault(user, call.out)
        call.check(earlier == call.out, f"predict: user {user} answered differently")


def run_cycles(session, seconds):
    """Set up, evaluate once, then repeat cycles for ``seconds`` (at least one).

    A cycle is one train and the workload's top-k calls over a seeded
    user order.  The held-out RMSE is deterministic per seed, so one
    evaluate call per run measures it.
    """
    spent, n = 0.0, 0
    while True:
        call = session.setup()
        spent, n = spent + call.wall, n + 1
        if n >= SETUP_REPEATS and (spent >= SETUP_SECONDS or not call.ok):
            break
    session.evaluate()
    deadline = time.perf_counter() + seconds
    while True:
        session.cycle([session.next_user() for _ in range(session.queries_per_cycle)])
        if time.perf_counter() >= deadline:
            break


def fixed_pass(session, queries):
    """The fixed work of one traced or untraced pass: a set-up, an
    evaluate and one cycle with the given users."""
    session.setup()
    session.evaluate()
    session.cycle(queries)


def pass_queries(session, seed):
    rng = np.random.default_rng([seed, 0x7ACE])
    return [int(u) for u in rng.integers(len(session.user_ids), size=session.queries_per_cycle)]


def warm_up(seed, workdir, cli):
    """Run every subcommand once on a small network, untimed, so imports
    and other lazy set-up finish before anything is measured."""
    session = Session("warmup", seed, workdir, cli)
    fixed_pass(session, pass_queries(session, seed))
    return session
