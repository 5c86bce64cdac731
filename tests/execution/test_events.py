"""Tests for the event loop, the request record and request-stream serving."""

import pytest

from repro.execution.events import EventLoop, RequestArrival
from repro.execution.serving import ServingOptions, ServingSimulator
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration


class TestEventLoop:
    def test_processes_in_timestamp_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(5.0, lambda: seen.append("b"))
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(9.0, lambda: seen.append("c"))
        processed = loop.run()
        assert processed == 3
        assert seen == ["a", "b", "c"]
        assert loop.now == 9.0

    def test_ties_keep_insertion_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append("first"))
        loop.schedule(1.0, lambda: seen.append("second"))
        loop.run()
        assert seen == ["first", "second"]

    def test_until_limits_processing(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(10.0, lambda: seen.append(2))
        loop.run(until=5.0)
        assert seen == [1]
        assert len(loop) == 1
        assert loop.now == 5.0

    def test_schedule_in_past_rejected(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule(0.5, lambda: None)

    def test_schedule_after(self):
        loop = EventLoop()
        seen = []
        loop.schedule_after(2.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [2.0]


class TestRequestArrival:
    def test_validation(self):
        with pytest.raises(ValueError):
            RequestArrival(arrival_time=-1.0)
        with pytest.raises(ValueError):
            RequestArrival(arrival_time=0.0, input_scale=0.0)


class TestRequestStreamSimulator:
    """A request stream served with no cluster and no cold starts: every
    request replays the service trace of the configuration dispatched for it."""

    @staticmethod
    def simulator(workflow, executor):
        return ServingSimulator(
            workflow=workflow,
            executor=executor,
            options=ServingOptions(simulate_cold_starts=False),
        )

    def test_runs_each_request_with_selected_configuration(
        self, diamond_workflow, diamond_executor, diamond_base_configuration
    ):
        simulator = self.simulator(diamond_workflow, diamond_executor)
        small = diamond_base_configuration
        big = WorkflowConfiguration.uniform(
            diamond_workflow.function_names, ResourceConfig(vcpu=8, memory_mb=4096)
        )
        requests = [
            RequestArrival(arrival_time=0.0, input_scale=1.0, input_class="light"),
            RequestArrival(arrival_time=10.0, input_scale=2.0, input_class="heavy"),
        ]

        def dispatch(request):
            return big if request.input_class == "heavy" else small

        outcomes = simulator.run(requests, dispatch).outcomes
        assert len(outcomes) == 2
        assert outcomes[0].configuration == small
        assert outcomes[1].configuration == big
        assert outcomes[1].dispatch_time == 10.0
        # latency excludes the arrival offset
        for outcome in outcomes:
            assert outcome.latency_seconds == pytest.approx(
                outcome.service_trace.end_to_end_latency
            )

    def test_costs_positive(self, diamond_workflow, diamond_executor, diamond_base_configuration):
        simulator = self.simulator(diamond_workflow, diamond_executor)
        outcomes = simulator.run(
            [RequestArrival(arrival_time=0.0)], lambda _: diamond_base_configuration
        ).outcomes
        assert outcomes[0].cost == outcomes[0].service_trace.total_cost > 0
