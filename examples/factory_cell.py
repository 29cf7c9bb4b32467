#!/usr/bin/env python3
"""Automated-manufacturing cell: hotspot control traffic plus bursts.

Models the paper's second motivating domain (industrial process
control / automated manufacturing): a cell controller polls machine
stations, stations answer with bursty status messages (exercising the
B_max allowance), and a vision system ships large best-effort frames
across the same mesh.  Demonstrates burst shaping, the horizon knob,
and admission keeping the hotspot node feasible.

Run:  python examples/factory_cell.py
"""

from repro import TrafficSpec, build_mesh_network
from repro.channels import AdmissionError
from repro.core.ports import port_mask

CONTROLLER = (1, 1)
PERIOD, BURST, BURSTS = 25, 2, 15     # ticks, messages, bursts
FRAME_EVERY, FRAME_AT, FRAMES = 500, 123, 20


def main() -> None:
    net = build_mesh_network(4, 4)

    # Give every link a modest horizon: stations may ship status
    # early when the fabric is idle, at a known buffer cost.
    for router in net.routers.values():
        router.control.write_horizon(port_mask(0, 1, 2, 3, 4), 8)

    # Admit as many station->controller channels as the fabric takes.
    stations = [n for n in net.mesh.nodes() if n != CONTROLLER]
    channels = []
    for index, station in enumerate(stations):
        try:
            channel = net.establish_channel(
                station, CONTROLLER,
                TrafficSpec(i_min=PERIOD, s_max=36, b_max=BURST),
                deadline=125,
                label=f"station-{station[0]}{station[1]}",
            )
        except AdmissionError as error:
            print(f"admission stopped at station {index}: {error}")
            break
        channels.append(channel)
    print(f"admitted {len(channels)} of {len(stations)} station channels "
          f"into the hotspot at {CONTROLLER}")

    # Tick by tick: every station sends a burst of status messages at
    # the top of its period, and the vision system streams a frame
    # diagonally as best effort every 500 cycles, 20 in all.
    slot = net.params.slot_cycles
    for tick in range(FRAME_EVERY * FRAMES // slot):
        if tick % PERIOD == 0 and tick < PERIOD * BURSTS:
            for channel in channels:
                for _ in range(BURST):
                    net.send_message(channel, b"temp=182C")
        end = net.cycle + slot
        due = net.cycle + (FRAME_AT - net.cycle) % FRAME_EVERY
        if due < end:
            net.run(due - net.cycle)
            net.send_best_effort((0, 0), (3, 3), bytes(400))
        net.run(end - net.cycle)
    net.drain(max_cycles=400_000)

    print(f"\nstatus messages delivered: {net.log.tc_delivered}")
    print(f"deadline misses:           {net.log.deadline_misses}")
    summary = net.log.latency_summary("TC")
    ticks = net.params.slot_cycles
    print(f"latency: mean {summary.mean / ticks:.1f} ticks, "
          f"p99 {summary.p99 / ticks:.1f} ticks, "
          f"max {summary.maximum / ticks:.1f} ticks")
    print(f"vision frames delivered:   {net.log.be_delivered}")
    assert net.log.deadline_misses == 0
    print("every admitted status burst met its bound.")


if __name__ == "__main__":
    main()
