"""Config resolution, checkpoint format, run artifacts, diagnostics, CLI."""

import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mgpp
from mgpp.checkpoint import (MAGIC, CheckpointError, load_checkpoint,
                             save_checkpoint)
from mgpp.cli import main
from mgpp.config import (PRESETS, ConfigError, ExperimentConfig, build_config,
                         config_to_text, load_config, parse_config_text)
from mgpp.harness import (compare_runs, dump_schedule, export_histogram,
                          export_threshold_trajectory, run_experiment)
from mgpp.metrics import RunMetrics, final_record, load_records
from mgpp.params import ParamStore
from mgpp.prior import MAX_GRID_ROWS
from mgpp.prune import PruneEvent, train
from mgpp.schedule import eta_at, sparsity_at

MICRO = """\
# micro run for tests
task.train = 256
task.dev = 64
task.test = 64
task.length = 8
task.vocab = 12
task.classes = 4
model.d = 8
model.k = 4
model.ffn = 16
model.heads = 2
model.layers = 1
epochs = 2
batch_size = 32
schedule.t_i = 2
schedule.t_f = 12
schedule.delta_t = 2
"""


def micro_config_file(tmp_path, extra: str = "", name: str = "micro.cfg"):
    path = tmp_path / name
    path.write_text(MICRO + extra, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config files and presets
# ---------------------------------------------------------------------------

def test_defaults_resolve():
    cfg = build_config({})
    assert cfg.method == "mgpp"
    v = cfg.values
    assert v["optim.lr"] == 3e-3 and v["optim.lr_floor"] == 3e-4
    assert v["optim.weight_decay"] == 0.0
    assert (v["mgp.lambda"] == 1e-7 and v["mgp.sigma0_sq"] == 1e-10
            and v["mgp.sigma1_sq"] == 0.05)
    assert cfg.task.length == 16
    assert cfg.total_steps == math.ceil(8 * 8000 / 32) == 2000
    assert (v["schedule.t_i"], v["schedule.t_f"], v["schedule.delta_t"]) \
        == (200, 1600, 10)


def test_experiment_config_holds_only_identity_and_values():
    # every other setting is read from the one resolved key table
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "method", "task", "model", "seed", "out_dir", "values"]
    cfg = build_config({"seed": 4})
    assert (cfg.seed, cfg.out_dir) == (cfg.values["seed"], cfg.values["out"])


def test_published_preset_expands():
    cfg = load_config(None, preset="mnli-90")
    assert cfg.method == "mgpp"
    assert cfg.task.n_classes == 3 and cfg.task.n_train == 393000
    assert cfg.total_steps == 98250
    v = cfg.values
    assert v["optim.lr"] == v["optim.lr_floor"] == 8e-5  # constant rate
    assert (v["schedule.t_i"], v["schedule.t_f"], v["schedule.delta_t"]) \
        == (5500, 75500, 10)
    assert v["schedule.v_final"] == 0.9
    assert (v["mgp.lambda"], v["mgp.sigma0_sq"], v["mgp.sigma1_sq"]) \
        == (1e-7, 1e-10, 0.05)


def test_desk_presets_set_method_only():
    for preset, method in (("desk-90", "mgpp"), ("desk-gmp-90", "gmp"),
                           ("desk-l2-90", "l2"), ("desk-pa-90", "pa")):
        cfg = load_config(None, preset=preset)
        assert cfg.method == method
        assert cfg.task.n_train == 8000
        assert cfg.total_steps == 2000


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="nope"):
        load_config(None, preset="nope")


def test_parse_skips_comments_and_blanks():
    values = parse_config_text("# c\n\n  seed = 9\n   # d\nepochs=3\n")
    assert values == {"seed": 9, "epochs": 3}


def test_readme_example_config_loads():
    # a '#' after a value is part of the value, so the example's comments
    # stand on lines of their own
    readme = Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"^```ini\n(.*?)^```",
                        readme.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    cfg = build_config(parse_config_text(blocks[0], "README.md"))
    assert (cfg.method, cfg.task.kind) == ("mgpp", "sparse-motif")
    assert cfg.values["schedule.v_final"] == 0.9
    assert cfg.values["optim.lr"] == 3e-3


def test_parse_rejects_unknown_key_with_location():
    text = "seed = 1\n\nmgp.sigma2_sq = 0.5\n"
    with pytest.raises(ConfigError, match=r"cfg\.txt:3.*sigma2_sq"):
        parse_config_text(text, "cfg.txt")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match=r"x:1"):
        parse_config_text("seed 1\n", "x")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError, match=r"x:1.*optim\.lr"):
        parse_config_text("optim.lr = fast\n", "x")


def test_file_overrides_preset_and_cli_overrides_file(tmp_path):
    path = tmp_path / "own.cfg"
    path.write_text("seed = 11\noptim.lr = 1e-4\n", encoding="utf-8")
    cfg = load_config(path, preset="mnli-90", overrides={"seed": 22})
    assert cfg.values["optim.lr"] == 1e-4        # file beats preset
    assert cfg.seed == 22                        # override beats file
    assert cfg.values["schedule.t_i"] == 5500    # untouched preset key survives


def test_method_validated():
    with pytest.raises(ConfigError, match="mgpp/gmp/l2/pa"):
        build_config({"method": "soft"})


def test_l2_weight_decay_default_and_override():
    def weight_decay(values):
        return build_config(values).values["optim.weight_decay"]
    assert weight_decay({"method": "l2"}) == 1e-2
    assert weight_decay({"method": "l2", "optim.weight_decay": 0.0}) == 0.0
    assert weight_decay({"method": "mgpp"}) == 0.0


def test_cli_refuses_the_dropped_n_max_key(tmp_path, capsys):
    # a config.txt written while the key existed names it; it is now unknown
    cfg_path = micro_config_file(tmp_path, "model.n_max = 8\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    assert "unknown key 'model.n_max'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_task_space_smaller_than_the_splits_before_generating(
        tmp_path, capsys):
    # 2^4 = 16 sequences for 10,000 disjoint examples: refused as a config
    # error, not after 5,000 candidates per example
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("task.kind = token-parity\ntask.vocab = 2\n"
                        "task.classes = 2\ntask.length = 4\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    assert "task: 2^4 sequences cannot fill 10000 disjoint examples" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_subconfig_surfaces_as_config_error():
    with pytest.raises(ConfigError):
        build_config({"task.vocab": 1})
    with pytest.raises(ConfigError):
        build_config({"schedule.t_i": -1})
    with pytest.raises(ConfigError):
        build_config({"mgp.lambda": 1.5})
    with pytest.raises(ConfigError):
        build_config({"epochs": 0})
    with pytest.raises(ConfigError):
        build_config({"batch_size": 0})


PA_PRIORS_THAT_FAIL = pytest.mark.parametrize("lines, message", [
    # the anneal would start from a spike wider than the slab
    ("pa.sigma0_init_sq = 0.1\n", "sigma0_sq must not exceed sigma1_sq"),
    ("mgp.sigma1_sq = 3e-5\n", "sigma0_sq must not exceed sigma1_sq"),
    # the threshold pass needs a spike strictly narrower than the slab
    ("mgp.sigma1_sq = 3e-5\npa.sigma0_init_sq = 3e-5\n",
     "sigma0_sq < sigma1_sq strictly"),
], ids=["wide-start", "narrow-slab", "slab-equals-end"])


@PA_PRIORS_THAT_FAIL
def test_cli_refuses_a_pa_prior_that_fails_mid_run(tmp_path, capsys, lines,
                                                   message):
    # both configs once passed build_config and died on the first step
    cfg_path = micro_config_file(tmp_path, "method = pa\n" + lines)
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverges on purpose
def test_cli_rerun_that_fails_leaves_no_earlier_results(tmp_path, capsys):
    # a directory holding a summary.json reads as a finished run, so a rerun
    # into it that diverges must not leave the first run's summary and
    # checkpoint beside its own metrics
    out = tmp_path / "o"
    first = micro_config_file(tmp_path, "method = gmp\n")
    assert main(["run", str(first), "--out", str(out)]) == 0
    assert (out / "summary.json").exists() and (out / "checkpoint.bin").exists()
    diverging = micro_config_file(tmp_path, "method = gmp\noptim.lr = 1e300\n",
                                  "diverging.cfg")
    assert main(["run", str(diverging), "--out", str(out)]) == 2
    assert "diverged at step" in capsys.readouterr().err
    assert (out / "metrics.jsonl").exists()
    assert not (out / "summary.json").exists()
    assert not (out / "checkpoint.bin").exists()


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_config_text_round_trips(tmp_path):
    cfg = build_config(parse_config_text(MICRO) |
                       {"method": "pa", "out": "runs/x",
                        "optim.lr": 2.5e-3, "mgp.sigma1_sq": 0.0625})
    text = config_to_text(cfg)
    again = build_config(parse_config_text(text, "roundtrip"))
    assert again == cfg


def test_build_config_types_values_as_their_text_form():
    cfg = build_config({"optim.weight_decay": 0, "seed": 3})
    assert isinstance(cfg.values["optim.weight_decay"], float)
    assert cfg.values["optim.weight_decay"] == 0.0
    assert build_config(parse_config_text(config_to_text(cfg))) == cfg
    with pytest.raises(ConfigError, match=r"schedule\.t_i"):
        build_config({"schedule.t_i": 2.5})


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def sample_store():
    rng = np.random.default_rng(3)
    embed, w1 = rng.normal(size=(5, 4)), rng.normal(size=(4, 6))
    keep = rng.random((4, 6)) > 0.5
    store = ParamStore([("embed.table", embed, False),
                        ("block0.ffn.w1", w1, True),
                        ("head.w", rng.normal(size=(4, 3)), False)])
    w = store["block0.ffn.w1"]
    w.mask[...] = keep
    w.value[~w.mask] = 0.0
    return store


def test_checkpoint_round_trip(tmp_path):
    store = sample_store()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(store, path)
    loaded = load_checkpoint(path)
    names = [name for name, _ in store.items()]
    assert [name for name, _ in loaded.items()] == names
    for name in names:
        np.testing.assert_array_equal(loaded[name].value, store[name].value)
        np.testing.assert_array_equal(loaded[name].mask, store[name].mask)
        assert loaded[name].prunable == store[name].prunable


def test_checkpoint_resave_is_byte_identical(tmp_path):
    store = sample_store()
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(store, a)
    save_checkpoint(load_checkpoint(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def oversized_checkpoints(tmp_path):
    """Short files whose headers declare more bytes than they hold: a
    2^63+5-byte manifest, and a [2^31, 2^31] tensor (2^65 bytes)."""
    blob = json.dumps({"format_version": 1, "tensors": [
        {"name": "w", "shape": [2**31, 2**31], "prunable": True}]}).encode()
    files = {"manifest": MAGIC + struct.pack("<Q", 2**63 + 5) + b"{}",
             "tensor": MAGIC + struct.pack("<Q", len(blob)) + blob + b"\0" * 8}
    paths = []
    for what, data in files.items():
        path = tmp_path / f"huge-{what}.bin"
        path.write_bytes(data)
        paths.append((what, path))
    return paths


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(sample_store(), path)
    (tmp_path / "cut.bin").write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path / "cut.bin")
    # a declared size is checked against the bytes left before it is read
    for what, path in oversized_checkpoints(tmp_path):
        with pytest.raises(CheckpointError,
                           match=f"truncated checkpoint while reading {what}"):
            load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(sample_store(), path)
    (tmp_path / "pad.bin").write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(tmp_path / "pad.bin")


def test_checkpoint_rejects_wrong_version(tmp_path):
    blob = json.dumps({"format_version": 2, "tensors": []}).encode()
    path = tmp_path / "v2.bin"
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(CheckpointError, match="format_version"):
        load_checkpoint(path)


def test_checkpoint_rejects_corrupt_manifest(tmp_path):
    blob = b"{not json"
    path = tmp_path / "junk.bin"
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint(path)


@pytest.mark.parametrize("manifest", [
    {"format_version": 1},
    {"format_version": 1, "tensors": 5},
    {"format_version": 1, "tensors": [{"name": "w", "prunable": True}]},
    {"format_version": 1,
     "tensors": [{"name": "w", "shape": "ab", "prunable": True}]},
], ids=["no-tensors", "tensors-not-a-list", "entry-without-shape",
        "shape-not-ints"])
def test_cli_malformed_manifest_is_runtime_error(tmp_path, capsys, manifest):
    blob = json.dumps(manifest).encode()
    path = tmp_path / "bad.bin"
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(CheckpointError, match="manifest"):
        load_checkpoint(path)
    assert main(["export-histogram", str(path)]) == 2
    assert capsys.readouterr().err.startswith("mgpp: error: ")


# ---------------------------------------------------------------------------
# run artifacts and diagnostics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = build_config(parse_config_text(MICRO) | {"out": str(out)})
    metrics, store = run_experiment(cfg)
    return cfg, out, metrics, store


def test_run_writes_four_artifacts(micro_run):
    _, out, _, _ = micro_run
    for name in ("config.txt", "metrics.jsonl", "checkpoint.bin",
                 "summary.json"):
        assert (out / name).exists(), name


def test_run_summary_extends_final_record(micro_run):
    _, out, metrics, _ = micro_run
    summary = json.loads((out / "summary.json").read_text())
    assert summary["wall_clock_sec"] > 0
    del summary["wall_clock_sec"]
    assert summary == metrics.final
    assert summary["final"] is True
    assert 0.0 <= summary["test_accuracy"] <= 1.0


def test_run_metrics_file_mirrors_memory(micro_run):
    # a pathless run writes the lines the run's file holds, to a stream in
    # memory that load_records reads as it reads the file
    cfg, out, metrics, _ = micro_run
    records = load_records(out / "metrics.jsonl")
    assert records == load_records(train(cfg)[0])
    assert final_record(records) == metrics.final


def test_run_config_snapshot_reloads(micro_run):
    cfg, out, _, _ = micro_run
    assert load_config(out / "config.txt") == cfg


def test_final_record_carries_config_without_seed_and_out(micro_run):
    cfg, out, metrics, _ = micro_run
    config = metrics.final["config"]
    assert "seed" not in config and "out" not in config
    assert build_config(config | {"seed": cfg.seed, "out": str(out)}) == cfg


def test_run_checkpoint_matches_final_sparsity(micro_run):
    _, out, metrics, store = micro_run
    loaded = load_checkpoint(out / "checkpoint.bin")
    assert loaded.sparsity() == metrics.final["sparsity"] == store.sparsity()


def run_bytes(out: Path) -> tuple[bytes, bytes]:
    return (out / "metrics.jsonl").read_bytes(), (out / "checkpoint.bin").read_bytes()


def test_runs_in_fresh_processes_do_not_depend_on_hash_seed(tmp_path):
    # set and dict order over strings changes with PYTHONHASHSEED; a run's
    # bytes must not
    cfg_path = micro_config_file(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(mgpp.__file__).parents[1]))
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hash{hash_seed}"
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from mgpp.cli import main; sys.exit(main(sys.argv[1:]))",
             "run", str(cfg_path), "--out", str(out)],
            env=env | {"PYTHONHASHSEED": hash_seed}, check=True,
            stdout=subprocess.DEVNULL)
        outputs.append(run_bytes(out))
    assert outputs[0] == outputs[1]


def test_run_bytes_survive_a_run_of_another_shape(tmp_path):
    # a run of another shape between two identical runs ([B*n x 16] has
    # the size of the micro run's [H x B*n x 8]) leaves its freed memory to
    # the allocator; the third run must still repeat the first exactly
    outputs = []
    for name, extra in (("a", ""), ("wide", "model.d = 16\n"), ("b", "")):
        cfg = build_config(parse_config_text(MICRO + extra)
                           | {"out": str(tmp_path / name)})
        run_experiment(cfg)
        outputs.append(run_bytes(tmp_path / name))
    assert outputs[0] == outputs[2]
    assert outputs[0] != outputs[1]


def test_run_requires_out_dir():
    cfg = build_config(parse_config_text(MICRO))
    with pytest.raises(ConfigError, match="output directory"):
        run_experiment(cfg)


def test_histogram_counts_nonzero_weights(micro_run, tmp_path):
    _, out, _, store = micro_run
    rows = export_histogram(out / "checkpoint.bin", bins=20)
    assert len(rows) == 20
    nonzero = sum(int(np.count_nonzero(store[n].value))
                  for n in store.prunable_names())
    assert sum(count for _, count in rows) == nonzero


def test_histogram_of_fully_pruned_store(tmp_path):
    store = ParamStore([("w", np.zeros(7), True)])
    store["w"].mask[:] = False
    save_checkpoint(store, tmp_path / "empty.bin")
    rows = export_histogram(tmp_path / "empty.bin", bins=5)
    assert [count for _, count in rows] == [0] * 5


def test_histogram_rejects_bad_bins(micro_run):
    _, out, _, _ = micro_run
    for bins in (0, MAX_GRID_ROWS + 1):
        with pytest.raises(ValueError, match="bins"):
            export_histogram(out / "checkpoint.bin", bins=bins)


def test_threshold_trajectory_matches_events(tmp_path, prune_events):
    # a run of micro_run's config, whose prunes are collected as they return
    cfg = build_config(parse_config_text(MICRO) | {"out": str(tmp_path)})
    run_experiment(cfg)
    rows = export_threshold_trajectory(tmp_path / "metrics.jsonl")
    _, last, rule = cfg.phases()[0]
    events = [t for t in range(1, last + 1) if rule(t).prune is not None]
    assert rows == list(zip(events,
                            [e.threshold for e in prune_events],
                            strict=True))
    steps = [s for s, _ in rows]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)


def test_threshold_trajectory_warns_when_empty(tmp_path, capsys):
    path = tmp_path / "m.jsonl"
    with RunMetrics(path) as m:
        m.log({"step": 1, "loss": 1.0, "sparsity": 0.0, "eta": 0.0})
        m.log_final({"step": 1, "loss": 1.0})
    assert export_threshold_trajectory(path) == []
    assert "no prune events" in capsys.readouterr().err


@pytest.mark.parametrize("step", [None, "3", 2.0, True],
                         ids=["missing", "string", "float", "bool"])
def test_cli_export_thresholds_refuses_an_event_without_an_integer_step(
        tmp_path, capsys, step):
    path = tmp_path / "m.jsonl"
    event = {"loss": 1.0, "threshold": 0.25}
    if step is not None:
        event["step"] = step
    path.write_text(json.dumps(event) + "\n", encoding="utf-8")
    assert main(["export-thresholds", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"mgpp: error: {path}: a prune event has no "
                            "integer step\n")
    assert captured.out == ""


@pytest.mark.parametrize("threshold", ['"x"', "null", "NaN", "true"],
                         ids=["string", "null", "nan", "bool"])
def test_cli_export_thresholds_refuses_a_threshold_that_is_not_a_finite_number(
        tmp_path, capsys, threshold):
    path = tmp_path / "m.jsonl"
    path.write_text('{"step": 1, "loss": 1.0, "threshold": 0.25}\n'
                    f'{{"step": 2, "loss": 1.0, "threshold": {threshold}}}\n',
                    encoding="utf-8")
    assert main(["export-thresholds", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"mgpp: error: {path}: a prune event's threshold "
                            "is not a finite number\n")
    assert captured.out == ""


def test_a_file_backed_run_keeps_no_records_in_memory(tmp_path):
    # the file is the records' one home, and a prune event's is its step's
    # record: logging 5,000 step records, every 4th with an event, leaves
    # traced memory where it was, where a list of the records would hold
    # about 1 MB and one of the events about 0.2 MB
    with RunMetrics(tmp_path / "m.jsonl") as m:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for step in range(1, 5001):
                record = {"step": step, "loss": 1.0 / step,
                          "sparsity": step / 5000, "eta": 1.0}
                if step % 4 == 0:
                    m.note_event(record, PruneEvent(
                        zeroed=step, kept=5000 - step, threshold=1.0 / step))
                m.log(record)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert grown < 64 * 1024


def test_load_records_reads_a_file_backed_run_from_its_file(tmp_path):
    step = {"step": 1, "loss": 1.0, "sparsity": 0.0, "eta": 0.0}
    with RunMetrics(tmp_path / "m.jsonl") as m:
        m.log(step)
        assert load_records(m) == [step]    # mid-run: each write is flushed
        m.log_final({"step": 1, "loss": 1.0})
    assert load_records(m) == [step, m.final]
    assert load_records(m) == load_records(tmp_path / "m.jsonl")


def _fake_metrics(path, *, method, seed, acc, task=None):
    with RunMetrics(path) as m:
        m.log({"step": 1, "loss": 0.5, "sparsity": 0.0, "eta": 0.0})
        m.log_final({"step": 2, "loss": 0.1, "sparsity": 0.9, "eta": 1.0,
                     "dev_accuracy": acc, "test_accuracy": acc,
                     "method": method, "seed": seed,
                     "task": task or {"kind": "sparse-motif", "seed": 1}})
    return path


def test_compare_aggregates_by_method(tmp_path):
    paths = [
        _fake_metrics(tmp_path / "a.jsonl", method="mgpp", seed=0, acc=0.9),
        _fake_metrics(tmp_path / "b.jsonl", method="mgpp", seed=1, acc=0.7),
        _fake_metrics(tmp_path / "c.jsonl", method="gmp", seed=0, acc=0.6),
    ]
    table = compare_runs(paths)
    assert [row["method"] for row in table] == ["gmp", "mgpp"]
    mgpp = table[1]
    assert mgpp["n_runs"] == 2 and mgpp["seeds"] == [0, 1]
    assert mgpp["test_accuracy_mean"] == pytest.approx(0.8)
    assert mgpp["test_accuracy_sd"] == pytest.approx(0.1)
    assert table[0]["test_accuracy_sd"] == 0.0


def test_compare_refuses_mixed_tasks(tmp_path):
    paths = [
        _fake_metrics(tmp_path / "a.jsonl", method="mgpp", seed=0, acc=0.9),
        _fake_metrics(tmp_path / "b.jsonl", method="mgpp", seed=1, acc=0.7,
                      task={"kind": "token-parity", "seed": 1}),
    ]
    with pytest.raises(ValueError, match="refusing"):
        compare_runs(paths)


def test_compare_refuses_duplicate_method_seed(tmp_path):
    a = _fake_metrics(tmp_path / "a.jsonl", method="mgpp", seed=0, acc=0.9)
    b = _fake_metrics(tmp_path / "b.jsonl", method="mgpp", seed=0, acc=0.7)
    for paths in ([a, a], [a, b]):
        with pytest.raises(ValueError, match="refusing") as exc:
            compare_runs(paths)
        assert str(paths[0]) in str(exc.value)
        assert str(paths[1]) in str(exc.value)


def test_compare_refuses_runs_with_different_configs(tmp_path):
    def run(name, seed, v_final):
        cfg = build_config(parse_config_text(MICRO) | {
            "seed": seed, "out": str(tmp_path / name),
            "schedule.v_final": v_final})
        run_experiment(cfg)
        return tmp_path / name / "metrics.jsonl"

    a, b, c = run("a", 0, 0.9), run("b", 1, 0.9), run("c", 1, 0.5)
    assert compare_runs([a, b])[0]["n_runs"] == 2
    with pytest.raises(ValueError, match="schedule.v_final") as exc:
        compare_runs([a, c])
    assert str(a) in str(exc.value) and str(c) in str(exc.value)


def test_compare_needs_final_record(tmp_path):
    path = tmp_path / "open.jsonl"
    with RunMetrics(path) as m:
        m.log({"step": 1, "loss": 1.0, "sparsity": 0.0, "eta": 0.0})
    with pytest.raises(ValueError, match="final"):
        compare_runs([path])


FINAL = {"step": 2, "final": True, "loss": 0.1, "sparsity": 0.9, "eta": 1.0,
         "test_accuracy": 0.8, "method": "mgpp", "seed": 0,
         "task": {"kind": "sparse-motif", "seed": 1}}


@pytest.mark.parametrize("lines, refusal", [
    (["[1, 2]", json.dumps(FINAL)], ":1: metrics line is not a JSON object"),
    ([json.dumps(FINAL), "3"], ":2: metrics line is not a JSON object"),
    ([json.dumps({k: v for k, v in FINAL.items() if k != "method"})],
     ": final record lacks method"),
    ([json.dumps({k: v for k, v in FINAL.items()
                  if k not in ("test_accuracy", "seed")})],
     ": final record lacks seed, test_accuracy"),
    ([json.dumps(FINAL | {"test_accuracy": "high"})],
     ": final record's test_accuracy is not a finite number"),
    ([json.dumps(FINAL | {"method": ["mgpp"]})],
     ": final record's method is not a string"),
    ([json.dumps(FINAL | {"config": [1]})],
     ": final record's config is not an object"),
], ids=["array", "number", "no-method", "no-accuracy-or-seed", "accuracy-a-string",
        "method-a-list", "config-a-list"])
def test_cli_compare_refuses_a_malformed_metrics_file(tmp_path, lines, refusal):
    # a runtime error naming the file, not a traceback with the usage code
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from mgpp.cli import main; sys.exit(main(sys.argv[1:]))",
         "compare", str(path)],
        env=dict(os.environ, PYTHONPATH=str(Path(mgpp.__file__).parents[1])),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == f"mgpp: error: {path}{refusal}\n"
    assert done.stdout == ""


def test_dump_schedule_cubic():
    cfg = build_config(parse_config_text(MICRO))
    header, rows = dump_schedule(cfg)
    assert header == ["step", "sparsity", "eta"]
    assert len(rows) == cfg.total_steps + 1
    v_final, t_i, t_f = 0.9, 2, 12  # MICRO's schedule, v_final at its default
    for t in (0, 5, cfg.total_steps):
        assert rows[t] == (t, sparsity_at(t, v_final, t_i, t_f), eta_at(t, t_i))


def test_dump_schedule_pa():
    cfg = build_config(parse_config_text(MICRO) | {"method": "pa"})
    header, rows = dump_schedule(cfg)
    assert header == ["step", "sigma0_sq", "eta"]
    assert rows[0][1] == cfg.values["pa.sigma0_init_sq"]
    assert rows[-1][1] == cfg.values["pa.sigma0_end_sq"]


@pytest.mark.parametrize("method", ["mgpp", "gmp", "l2", "pa"])
def test_dump_schedule_is_what_the_run_records(method):
    cfg = build_config(parse_config_text(MICRO) | {"method": method})
    header, rows = dump_schedule(cfg)
    metrics, _ = train(cfg)
    key = header[1]   # sparsity, or sigma0_sq for pa
    planned = {r["step"]: (r[key], r["eta"]) for r in load_records(metrics)
               if r["step"] <= cfg.total_steps and not r.get("final")}
    assert planned == {t: (v, eta) for t, v, eta in rows[1:]}


def _every_planned_step(values: dict) -> str:
    """"refused" by build_config, or "planned" once every step of every
    phase has evaluated; build_config itself evaluates only each phase's
    first and last step."""
    try:
        cfg = build_config(values)
    except ConfigError:
        return "refused"
    for first, last, rule in cfg.phases():
        for step in range(first, last + 1):
            rule(step)
    return "planned"


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_step_of_a_preset_plan_evaluates(preset):
    assert _every_planned_step(dict(PRESETS[preset])) == "planned"


@PA_PRIORS_THAT_FAIL
def test_a_pa_prior_that_fails_mid_run_is_refused_up_front(lines, message):
    values = parse_config_text(MICRO + "method = pa\n" + lines)
    assert _every_planned_step(values) == "refused"


# keys that a method's plan never reads: pa runs no cubic schedule, gmp and
# l2 no prior, and the cubic methods no pa phase
UNREAD_KEYS = [{"method": "pa", "schedule.delta_t": 0},
               {"method": "pa", "schedule.v_final": 1.5},
               {"method": "gmp", "mgp.lambda": 2.0},
               {"method": "l2", "mgp.sigma0_sq": 1.0},
               {"method": "gmp", "pa.refine_epochs": -1},
               {"method": "mgpp", "pa.refine_epochs": -1}]


@pytest.mark.parametrize("values", UNREAD_KEYS,
                         ids=lambda values: "-".join(map(str, values.values())))
def test_only_the_keys_a_plan_reads_are_checked(values):
    assert _every_planned_step(values) == "planned"


def test_a_prior_the_plan_reads_is_still_checked():
    with pytest.raises(ConfigError, match="lam must lie in"):
        build_config({"method": "mgpp", "mgp.lambda": 2.0})


def test_pa_still_refuses_a_negative_refine_epochs():
    with pytest.raises(ConfigError, match=r"pa\.refine_epochs must be >= 0"):
        build_config({"method": "pa", "pa.refine_epochs": -1})


@pytest.mark.parametrize("method, line", [("gmp", "mgp.lambda = 2.0\n"),
                                          ("l2", "mgp.sigma0_sq = 1.0\n")])
def test_cli_prior_curve_refuses_an_unread_bad_prior(tmp_path, capsys, method,
                                                      line):
    # the run builds; the curve is the first to read the prior
    cfg_path = micro_config_file(tmp_path, f"method = {method}\n" + line)
    assert main(["dump-schedule", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["export-prior-curve", str(cfg_path),
                 "--range=-0.2:0.2:0.1"]) == 1
    assert capsys.readouterr().err.startswith("mgpp: config error: mgp: ")


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def test_cli_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    capsys.readouterr()


def test_cli_needs_config_or_preset(capsys):
    assert main(["dump-schedule"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_dump_schedule_preset(capsys):
    assert main(["dump-schedule", "--preset", "desk-90"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,sparsity,eta"
    assert len(lines) == 2002            # header + steps 0..2000
    assert lines[1] == "0,0.0,0.0"


def test_cli_export_to_a_closed_reader_exits_141_quietly():
    # `mgpp dump-schedule --preset mnli-90 | head -1`: the plan's 98,252 lines
    # overfill the pipe, so the reader is gone before the export ends; the
    # status is 128 + SIGPIPE, as a shell gives a command that signal ended
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from mgpp.cli import main; sys.exit(main(sys.argv[1:]))",
         "dump-schedule", "--preset", "mnli-90"],
        env=dict(os.environ, PYTHONPATH=str(Path(mgpp.__file__).parents[1])),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert first == b"step,sparsity,eta\n"
    assert proc.returncode == 141
    assert err == b""


def test_cli_run_and_diagnostics(tmp_path, capsys):
    cfg_path = micro_config_file(tmp_path)
    out = tmp_path / "run7"
    code = main(["run", str(cfg_path), "--seed", "7", "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert "method=mgpp" in line and "seed=7" in line

    assert main(["export-thresholds", str(out / "metrics.jsonl")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "step,threshold" and len(rows) > 1

    assert main(["export-histogram", str(out / "checkpoint.bin"),
                 "--bins", "10"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "center,count" and len(rows) == 11

    assert main(["compare", str(out / "metrics.jsonl")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("method,n_runs,seeds")
    assert rows[1].startswith("mgpp,1,7,")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
def test_cli_diverged_run_fails_loudly(tmp_path, capsys):
    cfg_path = micro_config_file(tmp_path, "optim.lr = 1e300\n")
    out = tmp_path / "diverged"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    assert "diverged at step" in capsys.readouterr().err

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    lines = (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    for line in lines:
        record = json.loads(line, parse_constant=reject)
        assert math.isfinite(record["loss"])
    assert not (out / "checkpoint.bin").exists()


def test_cli_rejects_bad_config_file(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("mgp.sigma2_sq = 1\n", encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "sigma2_sq" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "optim.beta1 = 1.0", "optim.beta1 = -0.1", "optim.beta2 = 1.0",
    "optim.lr = 0.0", "optim.lr = -0.01", "optim.lr = nan",
    "optim.lr_floor = -3e-4", "optim.eps = -1", "optim.weight_decay = -5",
    "mgp.sigma1_sq = inf", "mgp.sigma0_sq = nan", "optim.lr = inf",
    "optim.lr_floor = inf", "optim.weight_decay = inf",
    "schedule.v_final = -inf", "pa.sigma0_end_sq = nan",
    "seed = -1", "task.seed = -1",
])
def test_cli_rejects_bad_optimizer_keys(tmp_path, capsys, line):
    # covers every float key: optimizer bounds, and a NaN or infinite value
    # anywhere; and a negative seed: all refused before the run starts
    cfg_path = micro_config_file(tmp_path, line + "\n")
    out = tmp_path / "o"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    key = line.partition(" =")[0]
    assert f"{key} must" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_checkpoint_is_runtime_error(tmp_path, capsys):
    assert main(["export-histogram", str(tmp_path / "none.bin")]) == 2
    capsys.readouterr()


def test_cli_corrupt_checkpoint_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"garbage bytes here")
    assert main(["export-histogram", str(path)]) == 2
    assert "error" in capsys.readouterr().err
    for _, path in oversized_checkpoints(tmp_path):
        assert main(["export-histogram", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "mgpp: error: truncated checkpoint")


def test_cli_prior_curve(capsys):
    assert main(["export-prior-curve", "--preset", "desk-90",
                 "--range=-0.2:0.2:0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta,penalty,penalty_grad"
    assert len(lines) >= 6               # base grid plus zoom points


def test_cli_prior_curve_bad_range(capsys):
    # the last two give more rows than a float holds
    for spec in ("0:1", "0:1:0", "0:1:-0.1", "1:0:0.1", "0:1:nan",
                 "nan:1:0.1", "0:inf:0.1", "0:1:1e-9", "0:1:5e-324", "0:1e308:1e-300"):
        assert main(["export-prior-curve", "--preset", "desk-90",
                     "--range", spec]) == 1, spec
        assert "--range" in capsys.readouterr().err


def test_cli_histogram_bad_bins_is_usage_error(micro_run, capsys):
    _, out, _, _ = micro_run
    for bins in (0, MAX_GRID_ROWS + 1):
        assert main(["export-histogram", str(out / "checkpoint.bin"),
                     "--bins", str(bins)]) == 1
        assert "--bins" in capsys.readouterr().err


def test_cli_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()
