"""Task generation, metrics, and the experiment pipeline."""

import math
from dataclasses import replace

import numpy as np
import pytest

from spiderft import benchmark
from spiderft.benchmark import (
    CSV_HEADER,
    DEFAULT_SAMPLES,
    MetricsReport,
    TaskSpec,
    build_report,
    default_suite,
    default_target,
    evaluate,
    generate_task,
    h_average,
    measure_pid_direction,
    metrics_csv,
    metrics_csv_rows,
    o_average,
    pretrain,
    run_experiment,
    source_average,
)
from spiderft.errors import ConfigError, DimensionError, DomainError
from spiderft.trainer import METHOD_CHOICES, RunLog, TrainConfig, build_model

from helpers import mapped

TOL = 0.005 + 1e-9  # two-decimal reporting band plus representation slack


def simple_spec(**overrides):
    base = dict(
        task_id="toy",
        class_count=3,
        input_dim=4,
        means=np.array(
            [
                [2.0, 0.0, 0.0, 0.0],
                [0.0, 2.0, 0.0, 0.0],
                [-1.5, -1.5, 0.0, 0.0],
            ]
        ),
        covariance_scale=0.3,
        rotation_angle=0.0,
        sample_seed=77,
    )
    base.update(overrides)
    return TaskSpec(**base)


# ---------------------------------------------------------------------------
# Task generation
# ---------------------------------------------------------------------------


def test_generate_task_is_deterministic():
    a = generate_task(simple_spec(), 100)
    b = generate_task(simple_spec(), 100)
    assert np.array_equal(a.train_inputs, b.train_inputs)
    assert np.array_equal(a.test_inputs, b.test_inputs)
    assert np.array_equal(a.train_labels, b.train_labels)


def test_generate_task_split_sizes_and_stride():
    data = generate_task(simple_spec(), 400)
    assert data.train_inputs.shape == (320, 4)
    assert data.test_inputs.shape == (80, 4)
    # labels are round-robin over the original index order
    full_labels = np.arange(400) % 3
    test_rows = np.arange(400) % 5 == 4
    assert np.array_equal(data.test_labels, full_labels[test_rows])
    assert np.array_equal(data.train_labels, full_labels[~test_rows])


def test_generate_task_prefix_stable_as_n_grows():
    # the test split never overlaps any train split, at any sample count:
    # membership depends only on the index, and points are a prefix-stable
    # stream of the sample seed
    small = generate_task(simple_spec(), 400)
    large = generate_task(simple_spec(), 1500)
    assert np.array_equal(small.train_inputs, large.train_inputs[:320])
    assert np.array_equal(small.test_inputs, large.test_inputs[:80])


def test_generate_task_class_balance():
    data = generate_task(simple_spec(), 300)
    for split_labels in (data.train_labels, data.test_labels):
        counts = np.bincount(split_labels, minlength=3)
        assert counts.max() - counts.min() <= 1


def test_rotation_moves_points_in_first_plane_only():
    spec0 = simple_spec()
    spec90 = simple_spec(rotation_angle=math.pi / 2)
    a = generate_task(spec0, 50)
    b = generate_task(spec90, 50)
    # same noise draws, rotated centers: coordinates 2+ are untouched
    assert np.array_equal(a.train_inputs[:, 2:], b.train_inputs[:, 2:])
    assert not np.array_equal(a.train_inputs[:, :2], b.train_inputs[:, :2])


def test_generate_task_validation():
    # a spec checks its own fields when it is built
    for overrides, message in [
        (dict(sample_seed=-1), "sample_seed must be >= 0, got -1"),
        (dict(class_count=1, means=np.zeros((1, 4))), "need at least 2 classes"),
        (dict(input_dim=1, means=np.zeros((3, 1))), "rotation needs input_dim >= 2"),
        (dict(means=np.zeros((2, 4))), r"means shape \(2, 4\) != \(3, 4\)"),
        (dict(covariance_scale=0.0), "covariance_scale must be positive"),
        (dict(means=np.zeros((3, 4))), "class means 0 and 1 coincide"),
    ]:
        with pytest.raises(ConfigError, match=f"^toy: {message}$"):
            simple_spec(**overrides)
    # and so does a copy with a field replaced
    with pytest.raises(ConfigError, match=r"means shape \(3, 8\) != \(4, 8\)"):
        replace(default_target(), class_count=4)
    # generate_task checks what needs its sample count or its draws
    with pytest.raises(ConfigError, match="need at least one sample per class"):
        generate_task(simple_spec(), 2)
    with pytest.raises(ConfigError, match="sampled points are not finite"):
        generate_task(simple_spec(covariance_scale=1e308), 10)  # overflows


def test_default_suite_and_target_layout():
    suite = default_suite()
    target = default_target()
    assert len(suite) == 4
    assert len({s.task_id for s in suite}) == 4
    assert target.task_id not in {s.task_id for s in suite}
    for s in suite:
        assert s.input_dim == 8 and s.class_count == 3
        assert np.array_equal(s.means, suite[0].means)
    # target relabels the ring and lifts it off the source plane
    assert not np.array_equal(target.means, suite[0].means)
    assert np.all(target.means[:, 2] != suite[0].means[:, 2])


# ---------------------------------------------------------------------------
# Pretraining and evaluation
# ---------------------------------------------------------------------------


def pretrain_cfg(epochs=10):
    return TrainConfig(method="full_ft", epochs=epochs, batch_size=16, seed=0)


def test_pretrain_fits_the_source_suite():
    model, snapshot = pretrain(default_suite(), pretrain_cfg())
    accs = [evaluate(model, s, 1500) for s in default_suite()]
    assert float(np.mean(accs)) > 0.9
    assert np.array_equal(snapshot.flat, model.tensor_map().flat)


def test_pretrain_near_perfect_when_noise_vanishes():
    suite = [simple_spec(covariance_scale=1e-3, task_id="clean")]
    model, _ = pretrain(suite, pretrain_cfg(epochs=5))
    assert evaluate(model, suite[0], 1500) >= 0.99


def test_single_task_model_does_not_transfer_to_far_rotation():
    spec0 = simple_spec()
    model, _ = pretrain([spec0], pretrain_cfg(epochs=5))
    same = evaluate(model, spec0, 1500)
    crossed = evaluate(model, simple_spec(rotation_angle=math.pi / 2), 1500)
    assert same > 0.9
    assert crossed < same - 0.2


def test_pretrain_validation():
    with pytest.raises(ConfigError):
        pretrain([], pretrain_cfg())
    mixed = [simple_spec(), simple_spec(task_id="wide", input_dim=6, means=np.zeros((3, 6)) + np.eye(3, 6))]
    with pytest.raises(ConfigError):
        pretrain(mixed, pretrain_cfg())


def test_constant_predictor_scores_exactly_chance():
    model = build_model([4, 5, 3], seed=0)
    model.load_values(mapped(model.tensor_map(), np.zeros_like))
    # all-zero weights put every class at the same logit; argmax breaks the
    # tie to class 0, and the round-robin labels make that exactly 1/3 when
    # the test split size divides evenly
    assert evaluate(model, simple_spec(), 1500) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_evaluate_is_read_only():
    model = build_model([4, 5, 3], seed=1)
    before = model.tensor_map().flat.copy()
    version = model.version
    evaluate(model, simple_spec(), 300)
    assert np.array_equal(model.tensor_map().flat, before)
    assert model.version == version


MEANS = simple_spec().means


@pytest.mark.parametrize("spec", [
    # labels 3 and 4, which the 3-class head can never predict
    simple_spec(class_count=5, means=np.vstack([MEANS, 2.0 * np.eye(2, 4, 2)])),
    simple_spec(class_count=2, means=MEANS[:2]),
    simple_spec(input_dim=5, means=np.hstack([MEANS, np.zeros((3, 1))])),
], ids=["more_classes", "fewer_classes", "wider_input"])
def test_evaluate_rejects_a_task_the_model_does_not_fit(spec):
    model = build_model([4, 5, 3], seed=1)
    with pytest.raises(DimensionError, match=r"toy: task has input_dim \d and class_count \d, "
                                             r"the model 4 and 3"):
        evaluate(model, spec)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_published_metric_values_reproduce():
    assert abs(h_average(47.04, 66.68) - 55.16) <= TOL
    assert abs(o_average(47.04, 66.68) - 56.86) <= TOL
    assert abs(h_average(61.39, 107.64) - 78.19) <= TOL
    assert abs(o_average(48.20, 102.07) - 75.14) <= TOL
    assert abs(source_average([55.60, 60.30, 68.20, 61.47]) - 61.39) <= TOL


def test_h_average_of_equal_inputs_is_identity():
    for x in (0.17, 1.0, 55.5):
        assert abs(h_average(x, x) - x) < 1e-12


def test_h_average_domain():
    with pytest.raises(DomainError):
        h_average(0.0, 1.0)
    with pytest.raises(DomainError):
        h_average(1.0, -0.5)


def test_harmonic_never_exceeds_arithmetic():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b = rng.uniform(0.01, 1.0, size=2)
        h, o = h_average(a, b), o_average(a, b)
        assert min(a, b) - 1e-12 <= h <= o <= max(a, b) + 1e-12
        if abs(a - b) > 1e-9:
            assert h < o


def test_source_average_is_plain_mean():
    values = [0.25, 0.5, 0.75, 1.0]
    assert source_average(values) == 0.625
    with pytest.raises(DomainError):
        source_average([])


def test_build_report_zeroes_harmonic_when_target_fails_completely():
    report = build_report("full_ft", 0, {"a": 0.5, "b": 0.7}, 0.0, RunLog(method="full_ft"))
    assert report.h_avg == 0.0
    assert report.o_avg == 0.3
    assert report.source_avg == pytest.approx(0.6)


def test_build_report_carries_traces():
    log = RunLog(method="spider", losses=[1.0], mask_density=[0.4], pid=[1.5])
    report = build_report("spider", 3, {"a": 0.8}, 0.9, log)
    assert report.pid_trace == [(0, 1.5)]
    assert report.mask_density_trace == [(0, 0.4)]
    assert abs(report.h_avg - h_average(0.8, 0.9)) < 1e-12


# ---------------------------------------------------------------------------
# Experiment pipeline
# ---------------------------------------------------------------------------


def tiny_experiment(methods, seeds=(0,)):
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
    return run_experiment(
        default_suite(),
        default_target(),
        methods,
        cfg,
        seeds=list(seeds),
        n_per_task=200,
        n_eval=500,
        pretrain_epochs=2,
    )


def test_run_experiment_orders_reports_by_method_then_seed():
    reports = tiny_experiment(["zero_shot", "full_ft"], seeds=(0, 1))
    assert [(r.method, r.seed) for r in reports] == [
        ("zero_shot", 0),
        ("zero_shot", 1),
        ("full_ft", 0),
        ("full_ft", 1),
    ]
    for r in reports:
        assert set(r.per_source_accuracy) == {s.task_id for s in default_suite()}
        assert 0.0 <= r.target_accuracy <= 1.0


def test_run_experiment_is_deterministic():
    a = metrics_csv(tiny_experiment(["zero_shot", "spider"]))
    b = metrics_csv(tiny_experiment(["zero_shot", "spider"]))
    assert a == b


def test_run_experiment_rejects_bad_inputs():
    cfg = TrainConfig(epochs=1)
    suite = default_suite()
    with pytest.raises(ConfigError, match="repeated"):
        run_experiment(suite, suite[0], ["full_ft"], cfg, [0])
    with pytest.raises(ConfigError):
        run_experiment(suite, default_target(), ["boost"], cfg, [0])
    # a repeated id within the suite would drop a task from the source average
    repeated = [suite[0], replace(suite[1], task_id=suite[0].task_id), *suite[2:]]
    with pytest.raises(ConfigError, match="repeated"):
        run_experiment(repeated, default_target(), ["full_ft"], cfg, [0])


def test_run_experiment_rejects_repeated_seeds_before_pretraining(monkeypatch):
    # a seed given twice would be pretrained twice and counted twice in a mean over seeds
    pretrained = []
    monkeypatch.setattr(benchmark, "pretrain", lambda *args, **kwargs: pretrained.append(args))
    with pytest.raises(ConfigError, match=r"seeds must be distinct, repeated: \[3\]"):
        run_experiment(default_suite(), default_target(), ["full_ft"], TrainConfig(epochs=1),
                       [3, 0, 3])
    assert pretrained == []


def test_an_empty_heldout_split_is_rejected_before_pretraining(monkeypatch):
    # 4 samples put none at the stride's fifth place, so no test split
    pretrained = []
    monkeypatch.setattr(benchmark, "pretrain", lambda *args, **kwargs: pretrained.append(args))
    with pytest.raises(ConfigError, match="src_rot000: empty test split"):
        run_experiment(default_suite(), default_target(), ["full_ft"], TrainConfig(), [0],
                       n_eval=4)
    assert pretrained == []
    with pytest.raises(ConfigError, match="target_rot120: empty test split"):
        evaluate(build_model([8, 3], seed=0), default_target(), 4)


def test_run_experiment_rejects_a_target_the_head_does_not_fit():
    target = default_target()
    five = replace(target, class_count=5, means=np.vstack([target.means, target.means[:2] + 3.0]))
    # zero_shot trains nothing, so only the evaluation sees the target
    with pytest.raises(DimensionError, match="class_count 5"):
        run_experiment(default_suite(), five, ["zero_shot"], TrainConfig(epochs=1), [0],
                       n_per_task=200, n_eval=500, pretrain_epochs=1)


def test_method_choices_cover_all_families():
    assert "zero_shot" in METHOD_CHOICES
    assert "spider" in METHOD_CHOICES
    assert "full_ft" in METHOD_CHOICES
    assert "select_random" in METHOD_CHOICES
    assert len(METHOD_CHOICES) == len(set(METHOD_CHOICES))


def test_measure_pid_direction_smoke():
    cfg = TrainConfig(epochs=1, batch_size=16)
    a = measure_pid_direction(
        default_suite(), default_target(), cfg, seed=0, n_per_task=200, pretrain_epochs=2
    )
    b = measure_pid_direction(
        default_suite(), default_target(), cfg, seed=0, n_per_task=200, pretrain_epochs=2
    )
    assert a == b
    assert a[0] >= 1.0 and a[1] >= 1.0


def test_measure_pid_direction_needs_training():
    with pytest.raises(ConfigError):
        measure_pid_direction(
            default_suite(), default_target(), TrainConfig(epochs=0), seed=0
        )


# ---------------------------------------------------------------------------
# CSV reporting
# ---------------------------------------------------------------------------


def test_metrics_csv_round_trip():
    report = MetricsReport(
        method="spider",
        seed=7,
        per_source_accuracy={"src_a": 0.123456789012345, "src_b": 0.9},
        source_avg=0.5117283945061725,
        target_accuracy=1.0 / 3.0,
        h_avg=0.4036,
        o_avg=0.42253,
    )
    rows = metrics_csv_rows([report])
    assert rows[0] == CSV_HEADER
    by_metric = {(r[2], r[3]): r for r in rows[1:]}
    assert float(by_metric[("src_a", "accuracy")][4]) == 0.123456789012345
    assert float(by_metric[("target", "accuracy")][4]) == 1.0 / 3.0
    assert float(by_metric[("", "source_avg")][4]) == 0.5117283945061725
    text = metrics_csv([report])
    lines = text.splitlines()
    assert lines[0] == "method,seed,task,metric,value"
    assert len(lines) == 1 + 2 + 1 + 3  # header, sources, target, aggregates
