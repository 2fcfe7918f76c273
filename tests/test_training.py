import weakref

import numpy as np
import pytest

import fuzzykan.tensor as T
from fuzzykan.model import ModelConfig, build
from fuzzykan.pooling import PoolConfig
from fuzzykan.training import (
    _BLOCK,
    BETA1,
    BETA2,
    EPS,
    METRICS_HEADER,
    WEIGHT_DECAY,
    AdamW,
    ConfusionMatrix,
    EpochMetrics,
    NumericalError,
    evaluate,
    train,
    write_metrics_csv,
)

from conftest import make_synthetic_dataset


def scalar_param(value):
    return T.Tensor(np.array([value]), requires_grad=True)


def out_of_place_adamw_step(params, m, v, t, lr):
    """The out-of-place AdamW update, kept as the oracle for the in-place one."""
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params:
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        p.data = p.data - lr * WEIGHT_DECAY * p.data
        m[name] *= BETA1
        m[name] += (1.0 - BETA1) * g
        v[name] *= BETA2
        v[name] += (1.0 - BETA2) * g * g
        p.data = p.data - lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + EPS)


def store_slices(opt):
    """Each parameter's slice of the optimizer's flat store, by name."""
    slices, start = {}, 0
    for name, p in opt.params:
        slices[name] = slice(start, start + p.size)
        start += p.size
    return slices


class TestAdamW:
    @pytest.mark.parametrize("option", [{"weight_decay": 0.0}, {"betas": (0.9, 0.99)}, {"eps": 1e-6}],
                             ids=["weight_decay", "betas", "eps"])
    def test_recipe_constants_are_not_options(self, option):
        with pytest.raises(TypeError):
            AdamW(T.ParameterStore([("p", scalar_param(1.0))], np.float64), **option)

    def test_zero_grad_pure_decay(self):
        p = scalar_param(2.0)
        opt = AdamW(T.ParameterStore([("p", p)], np.float64), lr=0.1)
        for _ in range(3):
            opt.zero_grad()
            opt.step()
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * WEIGHT_DECAY) ** 3, abs=1e-15)

    def test_three_step_hand_oracle(self):
        lr, b1, b2, eps, wd = 0.1, 0.9, 0.999, 1e-8, 0.01  # b1, b2, eps and wd: the recipe's constants
        p = scalar_param(0.7)
        opt = AdamW(T.ParameterStore([("p", p)], np.float64), lr=lr)
        grads = [0.3, -0.2, 0.5]
        # independent unrolled reference
        theta, m, v = 0.7, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            theta = theta - lr * wd * theta
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        for g in grads:
            p.grad[...] = g
            opt.step()
        assert abs(p.data[0] - theta) < 1e-12

    def test_nan_gradient_names_parameter(self):
        p = scalar_param(1.0)
        opt = AdamW(T.ParameterStore([("conv1.weight", p)], np.float64))
        p.grad[...] = np.nan
        with pytest.raises(NumericalError, match="conv1.weight"):
            opt.step()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_gradient_names_parameter(self, bad):
        p = scalar_param(1.0)
        opt = AdamW(T.ParameterStore([("fc0.bias", p)], np.float64))
        p.grad[...] = bad
        with pytest.raises(NumericalError, match="fc0.bias"):
            opt.step()
        assert p.data[0] == 1.0

    def test_an_unreached_parameter_only_decays(self):
        # a parameter the backward never reaches keeps its zero-filled gradient
        p = scalar_param(1.0)
        opt = AdamW(T.ParameterStore([("p", p)], np.float64), lr=0.1)
        opt.step()
        assert p.data[0] == 1.0 - 0.1 * WEIGHT_DECAY
        assert not opt.m.any() and not opt.v.any()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_blocks_are_bit_identical_to_the_out_of_place_step(self, dtype):
        # "big" spans two blocks and a partial third; "none" never gets a gradient
        shapes = {"big": (3, (2 * _BLOCK + 1000) // 3), "one": (1,), "none": (4, 3), "small": (5, 7)}
        rng = np.random.default_rng(21)
        init = {name: rng.normal(0.0, 0.5, shape).astype(dtype) for name, shape in shapes.items()}
        params = [(name, T.Tensor(init[name].copy(), requires_grad=True)) for name in shapes]
        oracle = [(name, T.Tensor(init[name].copy(), requires_grad=True)) for name in shapes]
        opt = AdamW(T.ParameterStore(params, dtype), lr=0.01)
        m = {name: np.zeros(shape, dtype) for name, shape in shapes.items()}
        v = {name: np.zeros(shape, dtype) for name, shape in shapes.items()}
        for t in range(1, 31):
            opt.zero_grad()
            for (name, p), (_, q) in zip(params, oracle):
                if name == "none":
                    q.grad = None
                    continue
                g = (rng.normal(0.0, 1.0, shapes[name]) * 10.0 ** rng.integers(-8, 2, shapes[name])).astype(dtype)
                signed_zeros = rng.random(shapes[name]) < 0.1
                g[signed_zeros] = np.where(rng.random(signed_zeros.sum()) < 0.5, -0.0, 0.0)
                p.grad[...], q.grad = g, g.copy()
            opt.step()
            out_of_place_adamw_step(oracle, m, v, t, lr=0.01)
        assert opt.t == 30
        slices = store_slices(opt)
        for (name, p), (_, q) in zip(params, oracle):
            assert p.data.dtype == dtype
            assert p.data.tobytes() == q.data.tobytes(), name
            assert opt.m[slices[name]].tobytes() == m[name].tobytes(), name
            assert opt.v[slices[name]].tobytes() == v[name].tobytes(), name

    def test_non_finite_gradient_leaves_every_state_unchanged(self):
        first, second = T.Tensor(np.array([0.5, -1.0]), requires_grad=True), scalar_param(2.0)
        opt = AdamW(T.ParameterStore([("first", first), ("second", second)], np.float64), lr=0.1)
        first.grad[...], second.grad[...] = [0.3, -0.2], 0.1
        opt.step()
        before = (opt.values.copy(), opt.m.copy(), opt.v.copy())
        first.grad[...], second.grad[...] = [0.4, 0.1], np.inf
        with pytest.raises(NumericalError, match="second"):
            opt.step()
        assert opt.t == 1
        for old, new in zip(before, (opt.values, opt.m, opt.v)):
            assert old.tobytes() == new.tobytes()

    def test_transposed_parameter_steps_like_its_contiguous_copy(self):
        values = np.arange(6.0).reshape(2, 3).T
        p = T.Tensor(values, requires_grad=True)
        q = T.Tensor(np.ascontiguousarray(values), requires_grad=True)
        opts = [AdamW(T.ParameterStore([("fc0.weight", t)], np.float64), lr=0.1) for t in (p, q)]
        rng = np.random.default_rng(6)
        for _ in range(3):
            g = rng.normal(0.0, 1.0, (3, 2))
            p.grad[...], q.grad[...] = g, g
            for opt in opts:
                opt.step()
        assert p.data.flags.c_contiguous and p.shape == (3, 2)
        assert p.data.tobytes() == q.data.tobytes()
        assert values.tolist() == [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]]  # the caller's array is not the parameter

    def test_mixed_dtypes_are_cast_to_the_store_dtype(self):
        f32, f64 = np.array([0.1, -2.5], np.float32), np.array([0.1])
        for dtype in (np.float32, np.float64):
            params = [("a", T.Tensor(f32, requires_grad=True)), ("b", T.Tensor(f64, requires_grad=True))]
            opt = AdamW(T.ParameterStore(params, dtype), lr=0.1)
            assert opt.values.tobytes() == np.concatenate([f32.astype(dtype), f64.astype(dtype)]).tobytes()
            assert all(p.data.dtype == p.grad.dtype == opt.m.dtype == dtype for _, p in params)
            params[0][1].grad[...], params[1][1].grad[...] = [0.3, -0.2], 0.1
            opt.step()
            assert opt.values.dtype == dtype and f32.tolist() == [np.float32(0.1), -2.5]  # the callers' arrays stay

    def test_parameters_are_views_of_one_store(self):
        first, second = T.Tensor(np.array([0.5, -1.0]), requires_grad=True), scalar_param(2.0)
        opt = AdamW(T.ParameterStore([("first", first), ("second", second)], np.float64), lr=0.1)
        grads = first.grad, second.grad
        for _ in range(2):
            opt.zero_grad()
            assert not opt.grads.any()
            first.grad[...], second.grad[...] = [0.3, -0.2], 0.1
            opt.step()
            assert first.grad is grads[0] and second.grad is grads[1]  # the same views on every step
        assert all(np.shares_memory(g, opt.grads) for g in grads)
        assert np.shares_memory(first.data, opt.values) and np.shares_memory(second.data, opt.values)
        assert opt.values.tolist() == [*first.data, *second.data]

    @pytest.mark.parametrize(
        "rebind, refused",
        [
            (lambda p: setattr(p, "grad", np.ones(p.shape)), True),
            (lambda p: p.zero_grad(), False),  # zeroes the view in place, so nothing is rebound
            (lambda p: setattr(p, "data", p.data.copy()), True),
        ],
        ids=["grad-assigned", "tensor-zero-grad", "data-assigned"],
    )
    def test_rebound_parameter_is_refused_before_any_state_changes(self, rebind, refused):
        # without the check, a rebound gradient would be ignored and the last one reused
        first, second = T.Tensor(np.array([0.5, -1.0]), requires_grad=True), scalar_param(2.0)
        opt = AdamW(T.ParameterStore([("first", first), ("second", second)], np.float64), lr=0.1)
        first.grad[...], second.grad[...] = [0.3, -0.2], 0.1
        opt.step()
        before = (opt.values.copy(), opt.m.copy(), opt.v.copy())
        view = second.grad
        rebind(second)
        if not refused:
            assert second.grad is view and opt.grads.tolist() == [0.3, -0.2, 0.0]
            opt.step()
            assert opt.t == 2
            return
        with pytest.raises(ValueError, match="parameter 'second' is no longer a view"):
            opt.step()
        assert opt.t == 1
        for old, new in zip(before, (opt.values, opt.m, opt.v)):
            assert old.tobytes() == new.tobytes()


class TestConfusionMatrix:
    def worked(self):
        cm = ConfusionMatrix(2)
        cm.counts[:] = [[5, 1], [2, 4]]
        return cm

    def test_macro_is_mean(self):
        precision, recall, f1 = self.worked().per_class()
        assert list(self.worked().report().values())[1:] == [precision.mean(), recall.mean(), f1.mean()]

    def test_absent_class_scores_zero(self):
        cm = ConfusionMatrix(3)
        cm.update([0, 0], [0, 1])  # class 2 never appears
        precision, recall, f1 = cm.per_class()
        assert precision[2] == recall[2] == f1[2] == 0.0
        assert precision[1] == 0.0  # predicted once, never correct

    def test_f1_bounded_by_max_pr(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cm = ConfusionMatrix(4)
            cm.update(rng.integers(0, 4, 30), rng.integers(0, 4, 30))
            precision, recall, f1 = cm.per_class()
            assert (f1 <= np.maximum(precision, recall) + 1e-12).all()

    def test_update_counts(self):
        a = ConfusionMatrix(2)
        a.update([0, 1], [1, 1])
        a.update([0], [0])
        np.testing.assert_array_equal(a.counts, [[1, 1], [0, 1]])
        assert a.total == 3

    def test_write_csv(self, tmp_path):
        path = tmp_path / "cm.csv"
        self.worked().write_csv(path)
        assert path.read_text().splitlines() == ["5,1", "2,4"]


def tiny_config(pooling="max", head="mlp"):
    return ModelConfig(pooling=PoolConfig(kind=pooling), head=head, head_widths=(16,) if head == "mlp" else (8,))


class TestEvaluate:
    def test_empty_dataset(self):
        model = build(tiny_config())
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, make_synthetic_dataset(10).subset(0))

    def test_counts_cover_dataset(self):
        model = build(tiny_config())
        ds = make_synthetic_dataset(15, seed=2)
        cm, metrics = evaluate(model, ds, batch_size=4)
        assert cm.total == 15
        assert 0.0 <= metrics["accuracy"] <= 1.0

    @pytest.mark.parametrize("pooling, head", [("fuzzy", "kan"), ("max", "mlp")])
    def test_confusion_matrix_is_the_wired_forwards(self, pooling, head):
        # evaluate runs under no_grad; the forwards that wire a graph pick the same classes
        model = build(tiny_config(pooling, head))
        ds = make_synthetic_dataset(12, seed=3)
        cm, _ = evaluate(model, ds, batch_size=5)
        wired = ConfusionMatrix(model.arch["n_classes"])
        for start in range(0, 12, 5):
            logits = model.forward(ds.images[start : start + 5])
            assert logits.requires_grad
            wired.update(ds.labels[start : start + 5], logits.data.argmax(axis=1))
        assert cm.counts.tolist() == wired.counts.tolist()

    @pytest.mark.parametrize("pooling, head", [("fuzzy", "kan"), ("max", "mlp")])
    def test_dataset_is_left_unchanged(self, pooling, head):
        # its batches are read-only views of the dataset, which the forward reads in place
        ds = make_synthetic_dataset(12, seed=3)
        images, labels = ds.images.copy(), ds.labels.copy()
        evaluate(build(tiny_config(pooling, head)), ds, batch_size=5)
        assert ds.images.tobytes() == images.tobytes() and ds.labels.tobytes() == labels.tobytes()
        assert ds.images.flags.writeable and ds.labels.flags.writeable

    def test_batch_logits_are_freed_before_the_next_forward(self):
        # a batch's logits keep its activations alive
        model = build(tiny_config())
        forward, previous, alive = model.forward, [], []

        def recording_forward(images):
            alive.extend(ref() is not None for ref in previous)
            logits = forward(images)
            previous[:] = [weakref.ref(logits)]
            return logits

        model.forward = recording_forward
        cm, _ = evaluate(model, make_synthetic_dataset(12, seed=3), batch_size=4)
        assert cm.total == 12
        assert alive == [False, False]


class TestTrain:
    def test_zero_epochs(self):
        model = build(tiny_config())
        before = {name: t.data.copy() for name, t in model.parameters()}
        history = train(model, make_synthetic_dataset(8), make_synthetic_dataset(4, seed=1), epochs=0)
        assert history == []
        for name, t in model.parameters():
            assert np.array_equal(t.data, before[name]), name

    def test_updates_all_parameters(self):
        model = build(tiny_config())
        before = {name: t.data.copy() for name, t in model.parameters()}
        train(model, make_synthetic_dataset(8), make_synthetic_dataset(4, seed=1), epochs=1, batch_size=8)
        changed = [name for name, t in model.parameters() if not np.array_equal(t.data, before[name])]
        assert set(changed) == {name for name, _ in model.parameters()}

    def test_determinism_byte_identical_csv(self, tmp_path):
        def run(path):
            model = build(tiny_config("average"))
            history = train(
                model,
                make_synthetic_dataset(16),
                make_synthetic_dataset(8, seed=1),
                epochs=2,
                batch_size=8,
                seed=11,
                clock=lambda: 0.0,
            )
            write_metrics_csv(path, history)

        run(tmp_path / "a.csv")
        run(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_determinism_default_clock(self):
        def run():
            model = build(tiny_config())
            return train(
                model,
                make_synthetic_dataset(16),
                make_synthetic_dataset(8, seed=1),
                epochs=2,
                batch_size=8,
                seed=11,
            )

        a, b = run(), run()
        for ma, mb in zip(a, b):
            assert (ma.train_loss, ma.test_accuracy, ma.precision, ma.recall, ma.f1) == (
                mb.train_loss,
                mb.test_accuracy,
                mb.precision,
                mb.recall,
                mb.f1,
            )

    def test_seed_changes_trajectory(self):
        def run(seed):
            model = build(tiny_config())
            return train(
                model,
                make_synthetic_dataset(16),
                make_synthetic_dataset(8, seed=1),
                epochs=1,
                batch_size=4,
                seed=seed,
            )

        assert run(1)[0].train_loss != run(2)[0].train_loss

    def test_nan_loss_aborts(self):
        model = build(tiny_config())
        model.params["conv1.weight"].data[:] = np.inf
        with pytest.raises(NumericalError, match="non-finite"):
            train(model, make_synthetic_dataset(8), make_synthetic_dataset(4, seed=1), epochs=1)

    def test_each_record_keeps_the_confusion_matrix_it_reports(self):
        model = build(tiny_config())
        test_set = make_synthetic_dataset(8, seed=1)
        history = train(model, make_synthetic_dataset(16), test_set, epochs=2, batch_size=8)
        for m in history:
            assert m.confusion.total == len(test_set)
            assert (m.test_accuracy, m.precision, m.recall, m.f1) == tuple(m.confusion.report().values())
        # nothing changes the model after its last evaluation, so evaluating it again gives the same counts
        assert np.array_equal(history[-1].confusion.counts, evaluate(model, test_set)[0].counts)
        assert "confusion" not in METRICS_HEADER and "confusion" not in repr(history[-1])

    def test_progress_callback(self):
        seen = []
        model = build(tiny_config())
        train(
            model,
            make_synthetic_dataset(8),
            make_synthetic_dataset(4, seed=1),
            epochs=2,
            batch_size=8,
            progress=seen.append,
        )
        assert [m.epoch for m in seen] == [0, 1]

    @pytest.mark.parametrize("pooling,head", [("max", "mlp"), ("fuzzy", "kan")])
    def test_smoke_learning(self, pooling, head):
        model = build(tiny_config(pooling, head))
        history = train(
            model,
            make_synthetic_dataset(64, seed=4),
            make_synthetic_dataset(16, seed=5),
            epochs=4,
            batch_size=16,
            seed=0,
        )
        losses = [m.train_loss for m in history]
        drops = sum(b < a for a, b in zip(losses, losses[1:]))
        assert drops >= 2, f"losses did not trend down: {losses}"


class TestMetricsCsv:
    def test_header_and_repr_floats(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, [EpochMetrics(0, 1 / 3, 0.5, 0.25, 0.125, 0.2, 0.0, ConfusionMatrix(2))])
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(METRICS_HEADER)
        assert lines[1].split(",")[1] == repr(1 / 3)
