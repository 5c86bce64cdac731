"""Property-based parity of the arrival generators with a per-arrival reference.

Every arrival process has one generator, ``arrival_times``, which draws its
gaps in array chunks, and :meth:`TrafficModel.generate_batch` /
:meth:`DriftingTrafficModel.generate_batch` wrap it into columnar streams.
The committed seeded streams (golden fixtures, benchmark digests) were
produced by per-arrival loops, so this file keeps those loops as an in-file
reference.  Under the same :class:`RngStream` the production generator must
produce *element-wise identical* timestamps, scales and class labels, and
must leave the generator in the *same state* as the reference (so draws
that follow, e.g. an interleaved hold-time draw, continue identically).
These properties draw random rates, horizons, seeds and phase layouts and
assert exactly that.
"""

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.execution.events import RequestArrival
from repro.utils.rng import RngStream
from repro.workloads.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    ConstantRateArrivals,
    DiurnalArrivals,
    DriftingTrafficModel,
    PoissonArrivals,
    ReplayArrivals,
    TraceArrivals,
    TrafficModel,
    TrafficPhase,
    TrafficProfile,
)
from repro.workloads.inputs import InputClass

CLASSES = [
    InputClass("light", scale=0.5, max_scale=0.75),
    InputClass("middle", scale=1.0, max_scale=1.5),
    InputClass("heavy", scale=2.0, max_scale=4.0),
]

seeds = st.integers(min_value=0, max_value=2**31 - 1)
rates = st.floats(min_value=0.05, max_value=20.0, allow_nan=False, allow_infinity=False)
durations = st.floats(
    min_value=1.0, max_value=300.0, allow_nan=False, allow_infinity=False
)


# -- per-arrival reference ----------------------------------------------------


def _constant_reference(process, duration, stream):
    gap = 1.0 / process.rate_rps
    times: List[float] = []
    index = 0
    while index * gap < duration:
        times.append(index * gap)
        index += 1
    return times


def _poisson_reference(process, duration, stream):
    times: List[float] = []
    t = stream.exponential(1.0 / process.rate_rps)
    while t < duration:
        times.append(t)
        t += stream.exponential(1.0 / process.rate_rps)
    return times


def _bursty_reference(process, duration, stream):
    times: List[float] = []
    t = 0.0
    burst = False
    while t < duration:
        rate = process.base_rate_rps * (process.burst_multiplier if burst else 1.0)
        hold = stream.exponential(
            process.mean_burst_seconds if burst else process.mean_calm_seconds
        )
        state_end = min(t + hold, duration)
        arrival = t + stream.exponential(1.0 / rate)
        while arrival < state_end:
            times.append(arrival)
            arrival += stream.exponential(1.0 / rate)
        t = state_end
        burst = not burst
    return times


def _diurnal_reference(process, duration, stream):
    peak = process.mean_rate_rps * (1.0 + process.amplitude)
    times: List[float] = []
    t = stream.exponential(1.0 / peak)
    while t < duration:
        if stream.uniform() * peak <= process.rate_at(t):
            times.append(t)
        t += stream.exponential(1.0 / peak)
    return times


def _trace_reference(process, duration, stream):
    return [t for t in process.times if t < duration]


def _replay_reference(process, duration, stream):
    times: List[float] = []
    for index, count in enumerate(process.counts):
        if count <= 0:
            continue
        start = index * process.bin_seconds
        gap = process.bin_seconds / count
        for j in range(count):
            t = start + j * gap
            if t >= duration:
                return times
            times.append(t)
    return times


_REFERENCES = {
    ConstantRateArrivals: _constant_reference,
    PoissonArrivals: _poisson_reference,
    BurstyArrivals: _bursty_reference,
    DiurnalArrivals: _diurnal_reference,
    TraceArrivals: _trace_reference,
    ReplayArrivals: _replay_reference,
}


def reference_times(
    process: ArrivalProcess, duration: float, stream: Optional[RngStream]
) -> List[float]:
    """The timestamps of ``process``, drawn one arrival at a time."""
    return _REFERENCES[type(process)](process, duration, stream)


def reference_pick_class(model: TrafficModel, u: float) -> InputClass:
    """First class whose running weight sum exceeds ``u``.

    A draw past a float sum that totals just under 1.0 lands on the last
    positive-weight class, so a zero-weight class is never emitted.
    """
    cumulative = 0.0
    for input_class, weight in zip(model.classes, model.weights):
        cumulative += weight
        if u < cumulative:
            return input_class
    return model.classes[max(i for i, w in enumerate(model.weights) if w > 0)]


def reference_generate(
    model: TrafficModel, duration: float, rng: Optional[RngStream]
) -> List[RequestArrival]:
    """The request stream, one ``class_rng.uniform()`` draw per request."""
    arrival_rng = rng.child("arrivals") if rng is not None else None
    class_rng = rng.child("classes") if rng is not None else None
    requests: List[RequestArrival] = []
    for time in reference_times(model.process, duration, arrival_rng):
        if len(model.classes) == 1:
            input_class = model.classes[0]
        else:
            input_class = reference_pick_class(model, class_rng.uniform())
        requests.append(
            RequestArrival(
                arrival_time=time,
                input_scale=input_class.scale,
                input_class=input_class.name,
            )
        )
    return requests


def reference_drifting(
    model: DriftingTrafficModel, duration: float, rng: RngStream
) -> List[RequestArrival]:
    """Every phase segment from the reference, offset to its start."""
    requests: List[RequestArrival] = []
    for index, (phase, start, end) in enumerate(model.phase_bounds(duration)):
        segment = end - start
        if segment <= 0:
            continue
        phase_model = TrafficModel.from_profile(phase.profile, classes=model.classes)
        phase_rng = rng.child("phase", index, phase.name)
        for request in reference_generate(phase_model, segment, phase_rng):
            requests.append(
                RequestArrival(
                    arrival_time=start + request.arrival_time,
                    input_scale=request.input_scale,
                    input_class=request.input_class,
                )
            )
    return requests


# -- properties ---------------------------------------------------------------


def _assert_twin(process: ArrivalProcess, duration: float, seed: int) -> None:
    """Generator and reference agree element-wise AND in post-run rng state."""
    reference_rng = RngStream(seed, "arrivals")
    array_rng = RngStream(seed, "arrivals")
    reference = reference_times(process, duration, reference_rng)
    batched = process.arrival_times(duration, array_rng)
    assert batched.dtype == np.float64
    assert batched.tolist() == reference
    # Same generator state afterwards: the next draw on either stream is
    # identical (interleaved consumers see no difference).
    assert reference_rng.generator.random() == array_rng.generator.random()


@given(rate=rates, duration=durations)
@settings(max_examples=50, deadline=None)
def test_constant_batch_matches_scalar(rate, duration):
    _assert_twin(ConstantRateArrivals(rate), duration, seed=0)


@given(rate=rates, duration=durations, seed=seeds)
@settings(max_examples=50, deadline=None)
def test_poisson_batch_matches_scalar(rate, duration, seed):
    _assert_twin(PoissonArrivals(rate), duration, seed)


@given(
    rate=rates,
    duration=durations,
    seed=seeds,
    multiplier=st.floats(min_value=1.0, max_value=10.0),
    calm=st.floats(min_value=5.0, max_value=120.0),
    burst=st.floats(min_value=5.0, max_value=60.0),
)
@settings(max_examples=50, deadline=None)
def test_bursty_batch_matches_scalar(rate, duration, seed, multiplier, calm, burst):
    process = BurstyArrivals(
        rate,
        burst_multiplier=multiplier,
        mean_calm_seconds=calm,
        mean_burst_seconds=burst,
    )
    _assert_twin(process, duration, seed)


@given(
    rate=rates,
    duration=durations,
    seed=seeds,
    amplitude=st.floats(min_value=0.0, max_value=0.95),
    period=st.floats(min_value=60.0, max_value=86400.0),
)
@settings(max_examples=50, deadline=None)
def test_diurnal_batch_matches_scalar(rate, duration, seed, amplitude, period):
    process = DiurnalArrivals(rate, amplitude=amplitude, period_seconds=period)
    _assert_twin(process, duration, seed)


@given(
    duration=durations,
    gaps=st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=80),
)
@settings(max_examples=50, deadline=None)
def test_trace_batch_matches_scalar(duration, gaps):
    times = np.cumsum(gaps).tolist()
    _assert_twin(TraceArrivals(times), duration, seed=0)


@given(
    duration=durations,
    counts=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=12),
    bin_seconds=st.sampled_from([1.0, 7.5, 60.0]),
)
@settings(max_examples=50, deadline=None)
def test_replay_batch_matches_scalar(duration, counts, bin_seconds):
    counts[0] += 1  # a replay needs at least one invocation
    _assert_twin(ReplayArrivals(counts, bin_seconds=bin_seconds), duration, seed=0)


@given(rate=rates, duration=durations, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_traffic_model_batch_matches_scalar(rate, duration, seed):
    """generate_batch().to_requests() and generate() equal the reference mix."""
    profile = TrafficProfile(
        arrival="poisson",
        rate_rps=rate,
        class_weights={"light": 2.0, "middle": 1.0, "heavy": 1.0},
    )
    model = TrafficModel.from_profile(profile, classes=CLASSES)
    reference = reference_generate(model, duration, RngStream(seed, "traffic"))
    batch = model.generate_batch(duration, RngStream(seed, "traffic"))
    assert len(batch) == len(reference)
    assert batch.to_requests() == reference
    assert model.generate(duration, RngStream(seed, "traffic")) == reference


@given(
    seed=seeds,
    duration=st.floats(min_value=50.0, max_value=400.0),
    boundary=st.floats(min_value=10.0, max_value=40.0),
    second_rate=rates,
)
@settings(max_examples=40, deadline=None)
def test_drifting_batch_matches_scalar_across_phases(
    seed, duration, boundary, second_rate
):
    """Phase boundaries included: each phase's child stream continues exactly."""
    model = DriftingTrafficModel(
        [
            TrafficPhase(
                "calm",
                0.0,
                TrafficProfile(
                    arrival="poisson",
                    rate_rps=0.5,
                    class_weights={"light": 3.0, "middle": 1.0, "heavy": 1.0},
                ),
            ),
            TrafficPhase(
                "shift",
                boundary,
                TrafficProfile(
                    arrival="bursty",
                    rate_rps=second_rate,
                    class_weights={"light": 1.0, "middle": 1.0, "heavy": 3.0},
                ),
            ),
            TrafficPhase(
                "late",
                2.0 * boundary,
                TrafficProfile(arrival="constant", rate_rps=0.25),
            ),
        ],
        classes=CLASSES,
    )
    reference = reference_drifting(model, duration, RngStream(seed, "drift"))
    batch = model.generate_batch(duration, RngStream(seed, "drift"))
    assert batch.to_requests() == reference
    assert model.generate(duration, RngStream(seed, "drift")) == reference
    # Arrivals stay non-decreasing across the concatenated phase segments.
    times = batch.times
    assert bool(np.all(times[1:] >= times[:-1]))


@given(rate=rates, seed=seeds, duration=durations)
@settings(max_examples=30, deadline=None)
def test_batch_state_supports_continuation(rate, seed, duration):
    """After a batch, *subsequent* draws match the per-arrival reference run.

    This is the property that makes interleaved consumers (bursty state
    machines) safe: the generator may draw in chunks but must rewind to the
    exact per-element draw count.
    """
    process = PoissonArrivals(rate)
    reference_rng = RngStream(seed, "cont")
    array_rng = RngStream(seed, "cont")
    reference_times(process, duration, reference_rng)
    process.arrival_times(duration, array_rng)
    follow_reference = [reference_rng.exponential(1.0 / rate) for _ in range(8)]
    follow_array = [array_rng.exponential(1.0 / rate) for _ in range(8)]
    assert follow_array == follow_reference


def test_single_class_batch_needs_no_class_rng():
    """One-class mixes draw nothing for classes (matching the reference)."""
    model = TrafficModel(ConstantRateArrivals(1.0))
    batch = model.generate_batch(10.0)
    assert batch.to_requests() == reference_generate(model, 10.0, None)
    assert batch.to_requests() == model.generate(10.0)
    assert set(batch.class_ids.tolist()) <= {0}


def test_multi_class_batch_requires_rng():
    model = TrafficModel(ConstantRateArrivals(1.0), classes=CLASSES)
    with pytest.raises(ValueError, match="requires an rng"):
        model.generate_batch(10.0)
