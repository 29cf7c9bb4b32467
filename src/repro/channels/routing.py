"""Route selection for real-time channels (paper section 3.3).

Time-constrained connections follow a *fixed* route chosen at
establishment time by protocol software; the chip only follows the
routing tables.  This module provides the route-construction policies:

* :func:`dimension_ordered_route` — the default x-then-y path.
* :func:`minimal_routes` — both dimension orders (x-first, y-first),
  the candidate set the protocol software picks from.
* :func:`least_loaded_route` — picks the candidate whose most-loaded
  link has the lowest reserved utilisation (resource-aware selection).
* :func:`multicast_tree` — merges dimension-ordered paths to several
  destinations into one routing tree with per-node output-port sets
  (table-driven multicast).

Routes are lists of ``(node, out_port)`` pairs over mesh coordinates
``(x, y)``; the final hop of a path uses the reception port.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.channels.admission import AdmissionController
from repro.core.ports import DISPLACEMENT, EAST, NORTH, RECEPTION, SOUTH, WEST

Node = tuple[int, int]
Hop = tuple[Node, int]
#: ``(width, height)`` of a torus, whose links wrap; ``None`` on a mesh.
Wrap = Optional[tuple[int, int]]


def _neighbour(node: Node, port: int, wrap: Wrap) -> Node:
    """The node the link ``port`` of ``node`` leads to."""
    dx, dy = DISPLACEMENT[port]
    x, y = node[0] + dx, node[1] + dy
    return (x % wrap[0], y % wrap[1]) if wrap else (x, y)


def _x_steps(src: Node, dst: Node) -> list[Hop]:
    hops: list[Hop] = []
    x, y = src
    while x != dst[0]:
        port = EAST if dst[0] > x else WEST
        hops.append(((x, y), port))
        x += 1 if dst[0] > x else -1
    return hops


def _y_steps(src: Node, dst: Node) -> list[Hop]:
    hops: list[Hop] = []
    x, y = src
    while y != dst[1]:
        port = NORTH if dst[1] > y else SOUTH
        hops.append(((x, y), port))
        y += 1 if dst[1] > y else -1
    return hops


def dimension_ordered_route(src: Node, dst: Node) -> list[Hop]:
    """X-then-y shortest path, ending with the reception hop."""
    hops = _x_steps(src, dst)
    corner = (dst[0], src[1])
    hops.extend(_y_steps(corner, dst))
    hops.append((dst, RECEPTION))
    return hops


def y_first_route(src: Node, dst: Node) -> list[Hop]:
    """Y-then-x shortest path (the alternate dimension order)."""
    hops = _y_steps(src, dst)
    corner = (src[0], dst[1])
    hops.extend(_x_steps(corner, dst))
    hops.append((dst, RECEPTION))
    return hops


def minimal_routes(src: Node, dst: Node) -> list[list[Hop]]:
    """Candidate shortest paths: both dimension orders (deduplicated)."""
    xy = dimension_ordered_route(src, dst)
    yx = y_first_route(src, dst)
    return [xy] if xy == yx else [xy, yx]


def least_loaded_route(
    admission: AdmissionController, src: Node, dst: Node,
) -> list[Hop]:
    """Choose the candidate route minimising the bottleneck utilisation.

    Ties break toward the dimension-ordered route.  Only link (not
    reception) hops count toward the bottleneck.
    """
    def bottleneck(route: list[Hop]) -> float:
        links = [hop for hop in route if hop[1] != RECEPTION]
        if not links:
            return 0.0
        return max(admission.link_utilisation(node, port)
                   for node, port in links)

    candidates = minimal_routes(src, dst)
    return min(candidates, key=bottleneck)


def multicast_tree(
    src: Node, destinations: list[Node],
    admission: Optional[AdmissionController] = None,
) -> tuple[dict[Node, set[int]], list[Node]]:
    """Merge per-destination routes into one multicast routing tree.

    Returns ``(ports_by_node, order)`` where ``ports_by_node`` maps
    each tree node to the set of output ports it forwards on (including
    the reception port at destinations), and ``order`` lists the nodes
    from the source outward (parents before children) — the order in
    which connection tables must be programmed and walked.
    """
    if not destinations:
        raise ValueError("multicast needs at least one destination")
    ports_by_node: dict[Node, set[int]] = {}
    for dst in destinations:
        if admission is not None:
            route = least_loaded_route(admission, src, dst)
        else:
            route = dimension_ordered_route(src, dst)
        for node, port in route:
            ports_by_node.setdefault(node, set()).add(port)

    return ports_by_node, _tree_order(src, ports_by_node)


def _tree_order(
    src: Node, ports_by_node: dict[Node, set[int]], wrap: Wrap = None,
) -> list[Node]:
    """Breadth-first programming order of a multicast tree (source out)."""
    order: list[Node] = []
    frontier = [src]
    seen = {src}
    while frontier:
        node = frontier.pop(0)
        order.append(node)
        for port in sorted(ports_by_node.get(node, ())):
            if port == RECEPTION:
                continue
            child = _neighbour(node, port, wrap)
            if child not in seen and child in ports_by_node:
                seen.add(child)
                frontier.append(child)
    if set(order) != set(ports_by_node):
        raise RuntimeError("multicast tree is not connected")
    return order


def multicast_tree_avoiding(
    width: int, height: int, src: Node, destinations: list[Node],
    failed: set[Hop], torus: bool = False,
) -> tuple[dict[Node, set[int]], list[Node]]:
    """Multicast routing tree that avoids failed links.

    All destination paths are taken from a *single* breadth-first
    shortest-path tree rooted at the source, so their union is a proper
    tree: two destinations sharing an ancestor share the whole prefix,
    and no node ever receives the same packet twice (which the
    connection tables could not express anyway).  Raises
    :class:`RouteError` if any destination is unreachable.
    """
    from collections import deque as _deque

    if not destinations:
        raise ValueError("multicast needs at least one destination")
    for dst in destinations:
        if (dst, RECEPTION) in failed:
            raise RouteError(f"reception port at {dst!r} is failed")
    parents: dict[Node, Optional[Hop]] = {src: None}
    frontier = _deque([src])
    while frontier:
        node = frontier.popleft()
        for port, (dx, dy) in DISPLACEMENT.items():
            if (node, port) in failed:
                continue
            nxt = (node[0] + dx, node[1] + dy)
            if torus:
                nxt = (nxt[0] % width, nxt[1] % height)
            elif not (0 <= nxt[0] < width and 0 <= nxt[1] < height):
                continue
            if nxt in parents:
                continue
            parents[nxt] = (node, port)
            frontier.append(nxt)

    ports_by_node: dict[Node, set[int]] = {src: set()}
    for dst in destinations:
        if dst not in parents:
            raise RouteError(
                f"no route from {src!r} to {dst!r} avoiding "
                f"{len(failed)} failed links"
            )
        ports_by_node.setdefault(dst, set()).add(RECEPTION)
        node = dst
        while parents[node] is not None:
            up_node, up_port = parents[node]
            ports_by_node.setdefault(up_node, set()).add(up_port)
            node = up_node
    return ports_by_node, _tree_order(
        src, ports_by_node, (width, height) if torus else None)


def best_effort_relay(
    width: int, height: int, src: Node, dst: Node, avoid: set[Hop],
) -> list[Node]:
    """Waypoint chain steering dimension-ordered wormholes around faults.

    Best-effort routing is hard-wired x-then-y, so the only way host
    software can route a wormhole packet around a dead link is to relay
    it through intermediate hosts.  This plans the chain: a breadth-
    first shortest path avoiding ``avoid`` is decomposed into straight
    segments (each trivially a safe dimension-ordered leg), then
    adjacent legs are greedily merged whenever the direct
    dimension-ordered route between their endpoints also avoids the
    faulty links.  Returns the waypoints after the source, ending with
    the destination; ``[dst]`` means a direct send is safe.
    """
    path = shortest_route_avoiding(width, height, src, dst, avoid)

    # Node sequence along the path (link hops only).
    nodes = [src]
    for node, port in path:
        if port == RECEPTION:
            continue
        dx, dy = DISPLACEMENT[port]
        nodes.append((node[0] + dx, node[1] + dy))

    def leg_safe(a: Node, b: Node) -> bool:
        return not any(hop in avoid for hop in dimension_ordered_route(a, b))

    waypoints: list[Node] = []
    leg_start = src
    i = 1
    while i < len(nodes):
        # Extend the current leg as far as it stays dimension-order safe.
        reach = i
        while reach + 1 < len(nodes) and leg_safe(leg_start, nodes[reach + 1]):
            reach += 1
        waypoints.append(nodes[reach])
        leg_start = nodes[reach]
        i = reach + 1
    if not waypoints or waypoints[-1] != dst:
        waypoints.append(dst)
    return waypoints


def tree_parents(
    ports_by_node: dict[Node, set[int]], order: list[Node],
    wrap: Wrap = None,
) -> dict[Node, Optional[Node]]:
    """Parent of each tree node (None at the source)."""
    parents: dict[Node, Optional[Node]] = {order[0]: None}
    for node in order:
        for port in ports_by_node.get(node, ()):
            if port == RECEPTION:
                continue
            child = _neighbour(node, port, wrap)
            if child in ports_by_node and child not in parents:
                parents[child] = node
    return parents


def route_length(route: list[Hop]) -> int:
    """Number of link traversals in a unicast route."""
    return sum(1 for __, port in route if port != RECEPTION)


class RouteError(RuntimeError):
    """No route exists under the given constraints."""


def shortest_route_avoiding(
    width: int, height: int, src: Node, dst: Node,
    failed: set[Hop], torus: bool = False,
) -> list[Hop]:
    """Shortest path in a mesh that avoids failed links.

    Time-constrained routing is table-driven, so a channel may follow
    *any* path the protocol software programs — not just dimension
    order.  This is the fault-recovery routing of the paper's
    introduction ("several disjoint routes between each pair of
    processing nodes, improving the application's resilience to link
    and node failures"): breadth-first search over the mesh excluding
    the failed ``(node, out_port)`` links.  Raises :class:`RouteError`
    when the destination is unreachable.
    """
    from collections import deque as _deque

    if (dst, RECEPTION) in failed:
        raise RouteError(f"reception port at {dst!r} is failed")
    parents: dict[Node, Optional[Hop]] = {src: None}
    frontier = _deque([src])
    while frontier:
        node = frontier.popleft()
        if node == dst:
            break
        for port, (dx, dy) in DISPLACEMENT.items():
            if (node, port) in failed:
                continue
            nxt = (node[0] + dx, node[1] + dy)
            if torus:
                nxt = (nxt[0] % width, nxt[1] % height)
            elif not (0 <= nxt[0] < width and 0 <= nxt[1] < height):
                continue
            if nxt in parents:
                continue
            parents[nxt] = (node, port)
            frontier.append(nxt)
    if dst not in parents:
        raise RouteError(
            f"no route from {src!r} to {dst!r} avoiding {len(failed)} "
            "failed links"
        )
    hops: list[Hop] = [(dst, RECEPTION)]
    node = dst
    while parents[node] is not None:
        hop = parents[node]
        hops.append(hop)
        node = hop[0]
    hops.reverse()
    return hops
