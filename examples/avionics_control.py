#!/usr/bin/env python3
"""Avionics-style workload: periodic control loops over the mesh.

The paper's introduction motivates the design with applications like
avionics: hard periodic loops (sensors -> flight computer -> control
surfaces) that must meet latency bounds even while bulk maintenance
traffic crosses the same fabric.  This example builds that scenario:

* four *sensor* channels (fast, small periods) into the flight computer;
* one *actuator command* multicast from the flight computer to three
  surface controllers (table-driven multicast, paper section 3.3);
* a best-effort "maintenance log" stream that soaks up spare bandwidth.

Run:  python examples/avionics_control.py
"""

from repro import TrafficSpec, build_mesh_network

FLIGHT_COMPUTER = (1, 1)
SENSORS = [(0, 0), (3, 0), (0, 3), (3, 3)]
SURFACES = [(2, 0), (0, 2), (3, 2)]
PERIOD = 20        # control period, ticks
PERIODS = 100
MAINTENANCE_EVERY, MAINTENANCE_AT, MAINTENANCE_COUNT = 640, 37, 60


def main() -> None:
    net = build_mesh_network(4, 4)

    # Sensor channels: 50 Hz-equivalent loops, tight deadlines.
    sensor_channels = []
    for index, sensor in enumerate(SENSORS):
        channel = net.establish_channel(
            sensor, FLIGHT_COMPUTER,
            TrafficSpec(i_min=PERIOD, s_max=18),
            deadline=40,
            label=f"sensor-{index}",
        )
        sensor_channels.append(channel)

    # Actuator multicast: one command fans out to all three surfaces.
    command = net.establish_channel(
        FLIGHT_COMPUTER, SURFACES,
        TrafficSpec(i_min=PERIOD, s_max=18),
        deadline=60,
        label="surface-cmd",
    )
    loops = [(channel, b"attitude+airspeed:") for channel in sensor_channels]
    loops.append((command, b"elevon=+2.5deg...."))

    # Fly for 100 control periods, one tick at a time: every loop sends
    # at the top of its period, and a large best-effort maintenance
    # transfer between corner nodes, crossing the control channels'
    # links, leaves every 640 cycles.
    slot = net.params.slot_cycles
    maintenance = 0
    for tick in range(PERIOD * PERIODS):
        if tick % PERIOD == 0:
            for channel, payload in loops:
                net.send_message(channel, payload)
        end = net.cycle + slot
        due = net.cycle + (MAINTENANCE_AT - net.cycle) % MAINTENANCE_EVERY
        if due < end and maintenance < MAINTENANCE_COUNT:
            net.run(due - net.cycle)
            net.send_best_effort((0, 0), (3, 3), bytes(256))
            maintenance += 1
        net.run(end - net.cycle)
    net.drain(max_cycles=200_000)

    print("channel               delivered  misses  mean-latency(ticks)")
    for channel in sensor_channels + [command]:
        records = net.log.of_connection(channel.label)
        if records:
            mean = sum(r.latency_cycles for r in records) / len(records)
        else:
            mean = 0.0
        misses = sum(1 for r in records if r.deadline_met is False)
        print(f"{channel.label:<22}{len(records):>8}{misses:>8}"
              f"{mean / net.params.slot_cycles:>18.1f}")

    be = net.log.latency_summary("BE")
    print(f"\nmaintenance (best-effort): {be.count} packets, "
          f"mean {be.mean:.0f} cycles")
    print(f"total deadline misses: {net.log.deadline_misses}")
    assert net.log.deadline_misses == 0
    print("control loops stayed inside their bounds.")


if __name__ == "__main__":
    main()
