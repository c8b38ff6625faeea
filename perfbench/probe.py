"""Host-speed probe: a fixed pure-Python workload timed between campaigns.

``run.py`` spawns this file before the first campaign and after every
campaign, and times it from the outside, interpreter start included,
just as it times a campaign.  The workload uses only the interpreter and
none of ``src/``, so its time moves with the host's speed and never with
a change to the program.  It walks a fixed chain of small objects whose
steps update a dict and a short list -- attribute access, method calls
and dict traffic, the work a simulator's tick does -- and prints a
checksum that ``run.py`` compares, so a probe that skipped its work is
caught::

    python3 perfbench/probe.py
"""

NODES = 2000
STEPS = 400_000


class Node:
    __slots__ = ("key", "value", "next", "recent")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.next = None
        self.recent = []

    def step(self, totals):
        totals[self.key] = totals.get(self.key, 0) + self.value
        self.recent.append(self.value)
        if len(self.recent) > 4:
            self.recent.pop(0)
        return self.next


def main() -> int:
    nodes = [Node(("n", i), i & 7) for i in range(NODES)]
    for i, node in enumerate(nodes):
        node.next = nodes[(i * 7919 + 7) % NODES]
    totals: dict = {}
    node = nodes[0]
    for _ in range(STEPS):
        node = node.step(totals)
    return sum(totals.values()) + len(totals)


if __name__ == "__main__":
    print(main())
