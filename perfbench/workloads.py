"""The four benchmark workloads.

Each workload turns the workload seed into a stream of batches. `inputs(b)`
generates batch b outside the timed section; `run(inputs)` is the timed work
and calls the program only through names exported by `rivercommons`, looked
up at call time so the traced run can wrap them. One operation is one grid
cell (a 100-year, 9-household run) or one solved game.
"""
from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ANTICOORDINATION = BENCH.parent / "configs" / "anticoordination_game.json"

TAUS = (0.0, 0.25, 1.0)              # the calibrate_check tax grid
BEHAVIOURS = ("altruistic", "balanced", "rational")
LLM_PIPELINES = ("generative", "naive-egta")
RULE_PIPELINES = ("procedural", "centralized")
GOLDEN_SEED = 11                     # simulation seed of each golden instance
EPS = 1e-6                           # epsilon-NE tolerance for solved games
PCT_FIELDS = ("pct_both", "pct_irrig_only", "pct_fish_only", "pct_none")


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def sweep_cells(rc, base, **grid):
    """One sweep() call: (attempted, failed, rows). A cell fails when its row
    carries an error; a sweep that raises fails every cell of its grid."""
    try:
        rows = rc.sweep(base, **grid)
    except Exception as err:  # the whole call is the operation boundary here
        cells = int(np.prod([len(v) for v in grid.values()]))
        return cells, cells, [{"error": f"{type(err).__name__}: {err}"}]
    return len(rows), sum(1 for row in rows if row["error"]), rows


def check_rows(rows, grid):
    """Errors in sweep rows: wrong grid order, or summaries that do not add up."""
    errors = []
    expected = [(p, t, b, s) for p in grid["pipelines"] for t in grid.get("taus", [None])
                for b in grid.get("behaviours", [None]) for s in grid["seeds"]]
    got = [(r.get("pipeline"), r.get("tau") if "taus" in grid else None,
            r.get("behaviour") if "behaviours" in grid else None, r.get("seed"))
           for r in rows]
    if got != expected:
        errors.append(f"sweep rows {got[:3]}... do not match the grid {expected[:3]}...")
    for row in rows:
        if row.get("error"):
            continue
        pct = sum(row[k] for k in PCT_FIELDS)
        if abs(pct - 100.0) > 1e-6 or row["min_budget_final"] > row["max_budget_final"]:
            errors.append(f"inconsistent summary row {row}")
    return errors


class Workload:
    name = ""
    nominal_batch_s = 1.0            # seed-code batch time; sizes the traced pass
    dominant_layers = ()             # spans that must record calls when traced

    def __init__(self, rc, base, seed, scratch: Path):
        self.rc = rc
        self.base = base
        self.seed = seed
        self.scratch = scratch
        self.op = nullcontext        # replaced by Tracer.op in the traced pass
        self.errors = []             # output checks that failed
        self.failures = []           # why operations failed

    def _rng(self, seed, b):
        key = int.from_bytes(hashlib.sha256(self.name.encode()).digest()[:4], "big")
        return np.random.default_rng([seed, key, b])

    def _sim_seeds(self, seed, b, k):
        return [int(s) for s in self._rng(seed, b).integers(0, 2**31 - 1, size=k)]

    def inputs(self, b):
        raise NotImplementedError

    def run(self, inputs):
        """The timed work; returns (attempted, failed)."""
        raise NotImplementedError

    def check_outputs(self):
        """Output checks that need the last batch's results; appends to errors."""

    def golden(self) -> str:
        """Digest of the outputs of a fixed instance, independent of the seed."""
        raise NotImplementedError


class _SweepWorkload(Workload):
    def bases(self):
        return [self.base]

    def grid(self, seeds):
        raise NotImplementedError

    def run(self, seeds):
        attempted = failed = 0
        grid = self.grid(seeds)
        for base in self.bases():
            a, f, rows = sweep_cells(self.rc, base, **grid)
            attempted += a
            failed += f
            self.failures.extend(row["error"] for row in rows if row["error"])
            self.errors.extend(check_rows(rows, grid))
        return attempted, failed

    def golden(self):
        grid = self.grid([GOLDEN_SEED])
        return digest([sweep_cells(self.rc, base, **grid)[2] for base in self.bases()])


class ExpertTaxGrid(_SweepWorkload):
    name = "expert-tax-grid"
    nominal_batch_s = 1.9
    dominant_layers = ("policies.expert_egta_decide", "games.build_irrigation_game",
                       "equilibrium.enumerate_pure_ne", "equilibrium.solve_symmetric_cpr")

    def inputs(self, b):
        return self._sim_seeds(self.seed, b, 1)

    def grid(self, seeds):
        return {"pipelines": ["expert-egta"], "taus": list(TAUS), "seeds": seeds}


class LlmStub(_SweepWorkload):
    """Half the cells replay the shipped fixture, half a noisy one whose prose,
    out-of-range and unparseable replies drive the retry, clamp and fallback
    paths."""

    name = "llm-stub"
    nominal_batch_s = 1.3
    dominant_layers = ("gateway.complete", "gateway.extract_structured",
                       "policies.generative_decide", "policies.naive_egta_decide")

    def __init__(self, rc, base, seed, scratch):
        super().__init__(rc, base, seed, scratch)
        gateway = rc.GatewayConfig(backend="stub", model="stub-model")
        noisy = write_noisy_fixture(rc, scratch / "noisy_fixture.json")
        self._bases = [replace(base, gateway=gateway),
                       replace(base, gateway=replace(gateway, fixture_path=str(noisy)))]

    def bases(self):
        return self._bases

    def inputs(self, b):
        return self._sim_seeds(self.seed, b, 1)

    def grid(self, seeds):
        return {"pipelines": list(LLM_PIPELINES), "behaviours": list(BEHAVIOURS),
                "seeds": seeds}


def write_noisy_fixture(rc, path: Path) -> Path:
    """Stub fixture from noisy_replies.json; the extraction entry is keyed by
    the fingerprint of the packaged extraction prompt, computed here."""
    from rivercommons.harness import load_prompts

    replies = json.loads((BENCH / "noisy_replies.json").read_text(encoding="utf-8"))
    request = rc.ChatRequest(model="stub-model",
                             messages=(("user", load_prompts()["as_extraction"]),))
    entries = [{"fingerprint": rc.request_fingerprint(request),
                "response": replies["extraction"]}]
    entries += [{"response": text} for text in replies["decisions"]]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=1), encoding="utf-8")
    return path


class RulesRunEmit(Workload):
    """Each cell runs the way `rivercommons run --out` does."""

    name = "rules-run-emit"
    nominal_batch_s = 0.4
    dominant_layers = ("ecology.advance_year", "ecology.route_river",
                       "ecology.step_fish", "harness.emit_outputs")
    seeds_per_batch = 4
    _last = ()                       # cells of the last batch run

    def inputs(self, b):
        return self._sim_seeds(self.seed, b, self.seeds_per_batch)

    def _cells(self, seeds):
        return [(p, s, self.scratch / "emit" / f"{p}-{j}")
                for p in RULE_PIPELINES for j, s in enumerate(seeds)]

    def run(self, seeds):
        failed = 0
        cells = self._cells(seeds)
        for pipeline, seed, out in cells:
            with self.op():
                try:
                    artifacts = self.rc.run_simulation(
                        replace(self.base, pipeline=pipeline, seed=seed))
                    self.rc.emit_outputs(artifacts, str(out))
                except Exception as err:  # a failing cell is counted, not fatal
                    failed += 1
                    self.failures.append(f"{pipeline} seed {seed}: {type(err).__name__}: {err}")
        self._last = cells
        return len(cells), failed

    def check_outputs(self):
        """The files of the last batch: one records row per household-year."""
        rows = self.base.horizon * self.base.n_households + 1
        for _, _, out in self._last:
            records = (out / "records.csv").read_bytes().count(b"\n")
            summary = (out / "summary.csv").read_bytes().count(b"\n")
            svgs = [(out / n).read_text(encoding="utf-8") for n in ("budgets.svg", "activity.svg")]
            if records != rows or summary != 2 or not all(s.endswith("</svg>\n") for s in svgs):
                self.errors.append(f"incomplete outputs under {out.name}")

    def golden(self):
        cells = self._cells([GOLDEN_SEED, GOLDEN_SEED + 1])
        parts = []
        for pipeline, seed, out in cells:
            artifacts = self.rc.run_simulation(replace(self.base, pipeline=pipeline, seed=seed))
            paths = self.rc.emit_outputs(artifacts, str(out))
            parts.append([hashlib.sha256(Path(paths[k]).read_bytes()).hexdigest()
                          for k in ("records", "summary")])
        return digest(parts)


class GameSolve(Workload):
    """Games solved as `rivercommons solve-game` does: pure equilibria, then
    Lemke-Howson from a seeded label, then the epsilon-NE check."""

    name = "game-solve"
    nominal_batch_s = 0.12
    dominant_layers = ("equilibrium.lemke_howson", "equilibrium.enumerate_pure_ne",
                       "equilibrium.is_epsilon_ne")
    random_games = ((2, 16), (4, 8), (11, 2))    # (actions per player, games per batch)
    irrigation_games = 6

    def __init__(self, rc, base, seed, scratch):
        super().__init__(rc, base, seed, scratch)
        data = json.loads(ANTICOORDINATION.read_text(encoding="utf-8"))
        self._shipped = rc.BimatrixGame(
            np.array(data["row_payoffs"], dtype=float), np.array(data["col_payoffs"], dtype=float),
            tuple(data["row_actions"]), tuple(data["col_actions"]))

    def _games(self, seed, b):
        rc = self.rc
        rng = self._rng(seed, b)
        games = []
        for k, count in self.random_games:
            for _ in range(count):
                row, col = rng.integers(-9, 10, size=(2, k, k)).astype(float)
                games.append(rc.BimatrixGame(row, col))
        games.append(self._shipped)
        eco = self.base.ecology
        for _ in range(self.irrigation_games):
            budgets = rng.uniform(0.0, 200.0, size=2)
            fish = rng.uniform(0.0, 25.0)
            spec = rc.IrrigationGameSpec(
                B_u=float(budgets[0]), B_d=float(budgets[1]), c=eco.c,
                T=float(rng.uniform(0.0, 200.0)), w=eco.w, y0=eco.y0, ys=eco.ys,
                S=self.base.pair_stress_threshold, kappa=eco.kappa,
                tau=float(rng.choice(TAUS)), F_u=float(fish), F_d=float(fish),
                max_fields=self.base.max_fields)
            games.append(rc.build_irrigation_game(spec))
        return [(g, int(rng.integers(sum(g.shape)))) for g in games]

    def inputs(self, b):
        return self._games(self.seed, b)

    def solve(self, game, label):
        rc = self.rc
        pure = rc.enumerate_pure_ne(game)
        profile = rc.lemke_howson(game, label)
        return pure, profile, rc.is_epsilon_ne(game, profile, EPS)

    def run(self, games):
        failed = 0
        for game, label in games:
            with self.op():
                try:
                    ok = self.solve(game, label)[2]
                except Exception as err:  # a failing game is counted, not fatal
                    failed += 1
                    self.failures.append(f"{game.shape} game: {type(err).__name__}: {err}")
                    continue
            if not ok:
                failed += 1
                self.failures.append(f"{game.shape} game: not an {EPS}-equilibrium")
        return len(games), failed

    def golden(self):
        out = []
        for game, label in self._games(GOLDEN_SEED, 0):
            pure, profile, ok = self.solve(game, label)
            out.append([sorted(pure), [round(float(p), 9) for p in profile.row_dist],
                        [round(float(p), 9) for p in profile.col_dist], ok])
        return digest(out)


WORKLOADS = {cls.name: cls for cls in (ExpertTaxGrid, LlmStub, RulesRunEmit, GameSolve)}
