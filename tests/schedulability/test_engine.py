"""Tests for the analytic engine: specs, verdicts, one establishment path.

``analyze`` is the simulator's admission control minus the simulator:
the same :class:`ChannelManager` over connection tables with no data
path behind them.  The heart of this file is therefore a differential
(:func:`assert_one_path`): for seeded demand lists and cut sets, the
engine's tables and a :class:`MeshNetwork` must end in the same channel
software, admission and control-interface state, through establishment
*and* recovery, with identical rejection reasons on the way.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.admission import AdmissionError
from repro.channels.routing import RouteError
from repro.core import RouterParams
from repro.faults.plan import FaultPlan
from repro.network.network import MeshNetwork
from repro.network.topology import Mesh
from repro.schedulability import (
    I_MIN_CHOICES,
    ChannelDemand,
    Problem,
    TopologySpec,
    adversarial_channel_demands,
    analyze,
    analyze_with_faults,
    predict_admission,
    random_channel_demands,
)
from repro.schedulability.engine import _analyze_live


def recovery_outcome(recover, channel):
    try:
        return "rerouted", recover(channel).deadline
    except AdmissionError as exc:
        return "refused", exc.details()
    except RouteError as exc:
        return "no-path", str(exc)


def assert_one_path(topology, demands, cuts=frozenset(), params=None):
    """Establish ``demands`` in order on the engine's bare tables and
    on a real mesh, recover every channel ``cuts`` hits on both in
    admission order, and require the same outcomes and end state."""
    report, manager = _analyze_live(topology, demands, params=params)
    net = MeshNetwork(topology.width, topology.height, params=params,
                      torus=topology.torus)
    for demand, verdict in zip(demands, report.channels):
        try:
            channel = net.establish_channel(
                demand.source, demand.destinations, demand.spec(),
                deadline=demand.deadline, label=demand.label)
        except AdmissionError as exc:
            assert not verdict.feasible, demand.label
            assert verdict.reason == exc.reason, demand.label
            assert verdict.rejection == exc.details(), demand.label
        else:
            assert verdict.feasible, demand.label
            assert verdict.predicted_bound == channel.deadline

    for node, direction in sorted(cuts):
        net.fail_link(node, direction)
    for label in [channel.label for channel in manager.channels]:
        bare, real = manager.find(label), net.manager.find(label)
        if not cuts & {(hop.node, hop.out_port)
                       for hop in bare.reservation.hops}:
            continue
        assert (recovery_outcome(lambda c: manager.recover(c, cuts), bare)
                == recovery_outcome(net.recover_channel, real)), label

    assert manager.state() == net.manager.state()
    assert manager.admission.state() == net.admission.state()
    for node, control in manager.controls.items():
        assert control.state() == net.routers[node].control.state(), node


def generated_case(seed, torus):
    """A seeded demand list (unicast and multicast, some refused), a
    random cut set and a connection-table size, on a small mesh or
    torus."""
    rng = random.Random(seed)
    width, height = rng.choice([(3, 3), (4, 3), (4, 4)])
    generate = rng.choice([random_channel_demands,
                           adversarial_channel_demands])
    demands = generate(width, height, rng.randint(4, 40), seed,
                       torus=torus)
    mesh = Mesh(width, height, torus=torus)
    # Multicast on the plain mesh only: recovering a tree across a
    # torus wrap link trips routing's unwrapped tree walk.
    for index in range(0 if torus else rng.randint(0, 3)):
        source, *destinations = rng.sample(list(mesh.nodes()),
                                           rng.randint(3, 4))
        i_min = rng.choice(I_MIN_CHOICES)
        demands.insert(rng.randrange(len(demands) + 1), ChannelDemand(
            label=f"mc-{index}", source=source,
            destinations=tuple(destinations), i_min=i_min,
            deadline=rng.choice([8, i_min * (width + height)])))
    links = [(node, direction) for node, direction, __ in mesh.links()]
    cuts = set(rng.sample(links, rng.randint(0, 4)))
    params = RouterParams(connections=rng.choice([256, 6]))
    return (TopologySpec(width, height, torus=torus), demands, cuts,
            params)


class TestSpecs:
    def test_problem_json_roundtrip(self, tmp_path):
        problem = Problem(
            topology=TopologySpec(3, 3),
            channels=tuple(random_channel_demands(3, 3, 4, seed=5)),
        )
        again = Problem.from_json(problem.to_json())
        assert again == problem
        path = problem.save(tmp_path / "p.json")
        assert Problem.from_file(path) == problem

    def test_malformed_inputs_raise_value_error(self):
        with pytest.raises(ValueError, match="invalid problem JSON"):
            Problem.from_json("{nope")
        with pytest.raises(ValueError, match="needs a topology"):
            Problem.from_dict({"channels": []})
        with pytest.raises(ValueError, match="unknown problem fields"):
            Problem.from_dict({"topology": {"width": 2, "height": 2},
                               "channels": [], "bogus": 1})
        with pytest.raises(ValueError, match="duplicate channel labels"):
            Problem.from_dict({
                "topology": {"width": 2, "height": 2},
                "channels": [
                    {"label": "a", "source": [0, 0],
                     "destinations": [[1, 0]], "i_min": 6,
                     "deadline": 20},
                    {"label": "a", "source": [0, 1],
                     "destinations": [[1, 1]], "i_min": 6,
                     "deadline": 20},
                ],
            })
        with pytest.raises(ValueError, match="i_min"):
            ChannelDemand(label="x", source=(0, 0),
                          destinations=((1, 0),), i_min=0, deadline=5)
        with pytest.raises(ValueError):
            TopologySpec(0, 4)

    @pytest.mark.parametrize("torus", [False, True])
    def test_endpoints_outside_the_topology_are_refused(self, torus):
        topology = TopologySpec(4, 4, torus=torus)
        inside = ChannelDemand(label="in", source=(0, 0),
                               destinations=((3, 3),), i_min=16,
                               deadline=400)
        stray = ChannelDemand(label="stray", source=(0, 0),
                              destinations=((1, 1), (4, 0)), i_min=16,
                              deadline=400)
        message = r"channel 'stray': node \(4, 0\) is outside the 4x4"
        with pytest.raises(ValueError, match=message):
            Problem(topology=topology, channels=(inside, stray))
        with pytest.raises(ValueError, match=message):
            Problem.from_dict({"topology": topology.to_dict(),
                               "channels": [inside.to_dict(),
                                            stray.to_dict()]})
        # The direct-call path: never a verdict, never the manager's
        # bare "route visits unknown node".
        with pytest.raises(ValueError, match=message):
            analyze(topology, [inside, stray])
        with pytest.raises(ValueError, match=message):
            analyze_with_faults(topology, [inside, stray], FaultPlan())
        with pytest.raises(ValueError, match=r"'lost': node \(0, -1\)"):
            analyze(topology, [ChannelDemand(
                label="lost", source=(0, -1), destinations=((1, 1),),
                i_min=16, deadline=400)])

    def test_random_demands_are_deterministic(self):
        a = random_channel_demands(4, 4, 8, seed=7)
        b = random_channel_demands(4, 4, 8, seed=7)
        assert a == b
        assert a != random_channel_demands(4, 4, 8, seed=8)

    def test_adversarial_demands_mix_bursts_and_sizes(self):
        demands = adversarial_channel_demands(4, 4, 32, seed=1)
        assert {demand.b_max for demand in demands} == {1, 2}
        assert len({demand.s_max for demand in demands}) == 2


class TestSimulatorAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
    @pytest.mark.parametrize("channels", [8, 40])
    def test_random_demands_agree(self, seed, channels):
        assert_one_path(TopologySpec(4, 4),
                        random_channel_demands(4, 4, channels, seed))

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_adversarial_demands_agree(self, seed):
        assert_one_path(TopologySpec(4, 4),
                        adversarial_channel_demands(4, 4, 28, seed))

    def test_multicast_agrees(self):
        demands = [ChannelDemand(
            label="mc", source=(0, 0),
            destinations=((3, 0), (0, 3), (3, 3)),
            i_min=10, deadline=60,
        )]
        assert_one_path(TopologySpec(4, 4), demands)
        assert analyze(TopologySpec(4, 4), demands).feasible

    def test_torus_agrees(self):
        assert_one_path(
            TopologySpec(4, 4, torus=True),
            random_channel_demands(4, 4, 12, seed=3, torus=True))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), torus=st.booleans())
    def test_generated_establishment_and_recovery_agree(self, seed, torus):
        assert_one_path(*generated_case(seed, torus))


class TestVerdictReport:
    def test_rejections_carry_structured_reasons(self):
        # A deadline shorter than the route can ever satisfy.
        topology = TopologySpec(4, 4)
        demands = [ChannelDemand(label="tight", source=(0, 0),
                                 destinations=((3, 3),), i_min=24,
                                 deadline=2)]
        report = analyze(topology, demands)
        verdict = report.verdict_for("tight")
        assert not verdict.feasible
        assert verdict.reason
        assert verdict.rejection is not None
        assert report.reject_reasons == {verdict.reason: 1}
        assert not report.feasible

    def test_report_round_trips_through_json(self):
        topology = TopologySpec(4, 4)
        report = analyze(topology, random_channel_demands(4, 4, 6, 11))
        payload = report.as_dict()
        assert json.loads(json.dumps(payload)) == json.loads(
            json.dumps(payload))
        assert payload["admitted"] == 6
        assert len(payload["channels"]) == 6
        assert payload["bottleneck"] is not None
        assert payload["node_buffers"]

    def test_signature_is_stable(self):
        topology = TopologySpec(4, 4)
        demands = random_channel_demands(4, 4, 6, 11)
        assert (analyze(topology, demands).signature()
                == analyze(topology, demands).signature())

    def test_per_hop_decomposition_sums_to_bound(self):
        topology = TopologySpec(4, 4)
        report = analyze(topology, random_channel_demands(4, 4, 6, 2))
        for verdict in report.channels:
            assert verdict.feasible
            assert sum(verdict.local_delays) == verdict.predicted_bound
            assert len(verdict.hops) == len(verdict.local_delays)
            assert verdict.slack == (verdict.deadline
                                     - verdict.predicted_bound)
            assert isinstance(verdict.netcalc_bound, float)
            assert verdict.netcalc_bound == float(verdict.predicted_bound)
            assert verdict.buffers  # every hop reserves buffers

    def test_bound_is_sum_of_local_delays(self):
        """Paper section 2: a unicast channel's bound is the sum of its
        d_j, and ``netcalc_bound`` carries it as a float."""
        checked = 0
        for seed, torus in itertools.product(range(4), (False, True)):
            topology, demands, __, params = generated_case(seed, torus)
            report = analyze(topology, demands, params=params)
            for verdict in report.channels:
                if not verdict.feasible or len(verdict.destinations) > 1:
                    continue
                bound = float(sum(verdict.local_delays))
                assert bound == float(verdict.predicted_bound)
                assert verdict.netcalc_bound == bound
                assert verdict.as_dict()["netcalc_bound"] == bound
                checked += 1
        assert checked

    def test_predict_admission_leaves_controller_untouched(self):
        net = MeshNetwork(4, 4)
        manager = net.manager
        demand = random_channel_demands(4, 4, 1, seed=0)[0]
        before = manager.admission.occupancy()
        verdict = predict_admission(
            manager.admission,
            manager.unicast_hops(demand.source, demand.destinations[0],
                                 adaptive=False),
            demand.spec(), demand.requirements())
        assert verdict["feasible"]
        assert verdict["predicted_bound"] == sum(
            verdict["local_delays"])
        assert manager.admission.occupancy() == before
