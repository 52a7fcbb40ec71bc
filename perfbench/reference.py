"""Reference interpreter for single-row CGP genomes, written apart from the
package's own decoder and evaluators.

It reads the flat genome form that `cgp-reorder run --dump-genome` writes
(one `position function_id conn...` line per node, one `out_k conn` line per
output, shape in a `# inputs=... function_set=...` header), walks backward
reachability from the outputs, and evaluates the active nodes in position
order.  The targets are rebuilt from each benchmark's definition: 3-bit odd
parity, the 3x3-bit product read most-significant-bit first, and pagie1's
formula over its 0.4-step grid on [-5, 5]^2.

Function ids follow the package's function-set order.  The protected
operators follow the conventions the README states and every result file
echoes (`PROTECTED_CONVENTIONS` below must equal the echoed strings):
division is 1.0 when |denominator| < 1e-9, ln takes ln|x| and is 0.0 when
|x| < 1e-9, exp clamps its argument at 700, and add, sub, mul and div clip
overflow to the largest finite float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = 1e-9
EXP_CLAMP = 700.0
LIMIT = np.finfo(np.float64).max

PROTECTED_CONVENTIONS = {
    "protected_pdiv": f"1.0 when |denominator| < {EPS:g}, else a/b",
    "protected_ln": f"0.0 when |x| < {EPS:g}, else ln(|x|)",
    "protected_exp": f"exp(min(x, {EXP_CLAMP:g}))",
}

# consumed connections per function id
ARITIES = {
    "boolean": (2, 2, 2, 2),  # AND OR NAND NOR
    "regression": (2, 2, 2, 2, 1, 1, 1, 1),  # ADD SUB MUL PDIV SIN COS LN EXP
}


@dataclass
class Genome:
    num_inputs: int
    num_outputs: int
    function_set: str
    functions: list[int]
    connections: list[tuple[int, ...]]
    outputs: list[int]

    @property
    def num_nodes(self) -> int:
        return len(self.functions)


def parse_flat(text: str) -> Genome:
    """Parse the flat dump; raises ValueError on any malformed line."""
    header: dict[str, str] = {}
    nodes: dict[int, tuple[int, tuple[int, ...]]] = {}
    outputs: dict[int, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not header:
                header = dict(part.split("=", 1) for part in line[1:].split())
            continue
        fields = line.split()
        if fields[0].startswith("out_"):
            outputs[int(fields[0][4:])] = int(fields[1])
        else:
            nodes[int(fields[0])] = (int(fields[1]), tuple(int(c) for c in fields[2:]))
    num_inputs = int(header["inputs"])
    num_nodes = int(header["nodes"])
    num_outputs = int(header["outputs"])
    arity = int(header["arity"])
    positions = list(range(num_inputs, num_inputs + num_nodes))
    if sorted(nodes) != positions or sorted(outputs) != list(range(num_outputs)):
        raise ValueError("node or output lines are missing or duplicated")
    if any(len(nodes[p][1]) != arity for p in positions):
        raise ValueError(f"a node does not carry {arity} connection genes")
    return Genome(
        num_inputs,
        num_outputs,
        header["function_set"],
        [nodes[p][0] for p in positions],
        [nodes[p][1] for p in positions],
        [outputs[k] for k in range(num_outputs)],
    )


def from_program(genotype) -> Genome:
    """Copy the gene values out of the package's in-memory genotype."""
    params = genotype.params
    return Genome(
        params.num_inputs,
        params.num_outputs,
        params.function_set,
        [node.function_id for node in genotype.computational],
        [tuple(node.connections) for node in genotype.computational],
        list(genotype.output_connections),
    )


def structure_problems(genome: Genome) -> list[str]:
    """Function ids in range, every connection feed-forward, outputs in range."""
    problems = []
    size = len(ARITIES[genome.function_set])
    for idx, (fid, conns) in enumerate(zip(genome.functions, genome.connections)):
        position = genome.num_inputs + idx
        if not 0 <= fid < size:
            problems.append(f"node {position}: function id {fid} out of range")
        for conn in conns:
            if not 0 <= conn < position:
                problems.append(f"node {position}: connection {conn} is not feed-forward")
    for k, conn in enumerate(genome.outputs):
        if not 0 <= conn < genome.num_inputs + genome.num_nodes:
            problems.append(f"output {k}: connection {conn} out of range")
    return problems


def active_bitmap(genome: Genome) -> list[bool]:
    """Nodes reachable backward from the outputs over consumed connections."""
    arities = ARITIES[genome.function_set]
    start = genome.num_inputs
    active = [False] * genome.num_nodes
    pending = [c - start for c in genome.outputs if c >= start]
    while pending:
        idx = pending.pop()
        if active[idx]:
            continue
        active[idx] = True
        consumed = genome.connections[idx][: arities[genome.functions[idx]]]
        pending.extend(c - start for c in consumed if c >= start)
    return active


def _boolean_node(fid: int, a: int, b: int, full: int) -> int:
    if fid == 0:
        return a & b
    if fid == 1:
        return a | b
    if fid == 2:
        return full ^ (a & b)
    return full ^ (a | b)


def _regression_node(fid: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if fid == 0:
            return np.clip(a + b, -LIMIT, LIMIT)
        if fid == 1:
            return np.clip(a - b, -LIMIT, LIMIT)
        if fid == 2:
            return np.clip(a * b, -LIMIT, LIMIT)
        if fid == 3:
            small = np.abs(b) < EPS
            return np.where(small, 1.0, np.clip(a / np.where(small, 1.0, b), -LIMIT, LIMIT))
        if fid == 4:
            return np.sin(a)
        if fid == 5:
            return np.cos(a)
        if fid == 6:
            small = np.abs(a) < EPS
            return np.where(small, 0.0, np.log(np.where(small, 1.0, np.abs(a))))
        return np.exp(np.minimum(a, EXP_CLAMP))


class BooleanProblem:
    """A truth table packed column-wise: bit r of a column is row r."""

    maximize = True
    function_set = "boolean"

    def __init__(self, name: str) -> None:
        if name == "parity3":
            rows = []
            for r in range(8):
                bits = [(r >> i) & 1 for i in range(3)]
                rows.append((bits, [bits[0] ^ bits[1] ^ bits[2]]))
        elif name == "multiply3":
            rows = []
            for a in range(8):
                for b in range(8):
                    operands = [(a >> (2 - i)) & 1 for i in range(3)]
                    operands += [(b >> (2 - i)) & 1 for i in range(3)]
                    product = [((a * b) >> (5 - i)) & 1 for i in range(6)]
                    rows.append((operands, product))
        else:
            raise ValueError(f"no reference truth table for {name!r}")
        self.num_inputs = len(rows[0][0])
        self.rows = len(rows)
        self.full = (1 << self.rows) - 1
        self.inputs = [
            sum(bits[i] << r for r, (bits, _) in enumerate(rows))
            for i in range(self.num_inputs)
        ]
        self.num_outputs = len(rows[0][1])
        self.targets = [
            sum(out[o] << r for r, (_, out) in enumerate(rows))
            for o in range(self.num_outputs)
        ]

    def fitness(self, genome: Genome, active: list[bool] | None = None) -> float:
        if active is None:
            active = active_bitmap(genome)
        start = genome.num_inputs
        values: dict[int, int] = dict(enumerate(self.inputs))
        for idx, on in enumerate(active):
            if on:
                c = genome.connections[idx]
                values[start + idx] = _boolean_node(
                    genome.functions[idx], values[c[0]], values[c[1]], self.full
                )
        wrong = 0
        for conn, target in zip(genome.outputs, self.targets):
            wrong |= values[conn] ^ target
        return (self.rows - bin(wrong).count("1")) / self.rows

    def agrees(self, reference: float, program: float) -> bool:
        return reference == program


class Pagie1Problem:
    """1/(1+x^-4) + 1/(1+y^-4) on the 26 x 26 grid -5, -4.6, ..., 5."""

    maximize = False
    function_set = "regression"
    # relative tolerance between the reference MAE and the program's
    TOLERANCE = 1e-9

    def __init__(self) -> None:
        axis = np.array([-5.0 + k * 0.4 for k in range(26)])
        x, y = np.meshgrid(axis, axis, indexing="ij")
        self.columns = [x.ravel(), y.ravel()]
        self.num_inputs = 2
        self.num_outputs = 1
        self.ys = 1.0 / (1.0 + self.columns[0] ** -4.0) + 1.0 / (1.0 + self.columns[1] ** -4.0)

    def fitness(self, genome: Genome, active: list[bool] | None = None) -> float:
        if active is None:
            active = active_bitmap(genome)
        arities = ARITIES["regression"]
        start = genome.num_inputs
        values: dict[int, np.ndarray] = dict(enumerate(self.columns))
        for idx, on in enumerate(active):
            if on:
                fid = genome.functions[idx]
                c = genome.connections[idx]
                b = values[c[1]] if arities[fid] == 2 else None
                values[start + idx] = _regression_node(fid, values[c[0]], b)
        return float(np.mean(np.abs(self.ys - values[genome.outputs[0]])))

    def agrees(self, reference: float, program: float) -> bool:
        return abs(reference - program) <= self.TOLERANCE * max(1.0, abs(reference))


def make_problem(bench: str):
    return Pagie1Problem() if bench == "pagie1" else BooleanProblem(bench)
