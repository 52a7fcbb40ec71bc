import numpy as np
import pytest
from hypothesis import settings

from cgp_reorder.functions import EXP_CLAMP, PROTECTED_EPS, VALUE_LIMIT
from cgp_reorder.genome import (
    ARITY,
    ActiveSet,
    Delta,
    GraphParams,
    Genotype,
    NodeGene,
    decode_active,
    random_genome,
)

settings.register_profile("cgp", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("cgp")


def fig1_genome() -> Genotype:
    """The worked example graph: two inputs, an unused divider, a subtractor,
    and an adder that doubles the difference; the output reads the adder."""
    params = GraphParams(2, 1, 3, "regression")
    nodes = [
        NodeGene(3, (0, 1)),  # PDIV, inactive
        NodeGene(1, (0, 1)),  # SUB
        NodeGene(0, (3, 3)),  # ADD of SUB with itself
    ]
    return Genotype(params, nodes, (4,))


def chain_genome(num_nodes: int, function_set: str = "boolean") -> Genotype:
    """Every node consumes its predecessor; output reads the last node, so
    all computational nodes are active."""
    params = GraphParams(2, 1, num_nodes, function_set)
    nodes = [
        NodeGene(0, (params.comp_start + i - 1,) * 2 if i else (0, 1))
        for i in range(num_nodes)
    ]
    return Genotype(params, nodes, (params.comp_end,))


def parity3_xor_genome() -> Genotype:
    """Exact 3-bit parity circuit from NAND gates: XOR(a, b) built twice.

    XOR(a, b) = NAND(NAND(a, NAND(a, b)), NAND(b, NAND(a, b))).
    """
    params = GraphParams(3, 1, 8, "boolean")
    NAND = 2

    def xor_nodes(a: int, b: int, base: int) -> list[NodeGene]:
        # node positions base..base+3; result at base+3
        return [
            NodeGene(NAND, (a, b)),
            NodeGene(NAND, (a, base)),
            NodeGene(NAND, (b, base)),
            NodeGene(NAND, (base + 1, base + 2)),
        ]

    nodes = xor_nodes(0, 1, 3) + xor_nodes(6, 2, 7)
    return Genotype(params, nodes, (10,))


def edited(parent: Genotype, nodes: dict | None = None, outputs: dict | None = None):
    """A mutant of ``parent`` that replaces the given node records and output
    genes, shares every other node with ``parent``, and records what it
    replaced in its delta, as `single_mutation` does."""
    nodes = nodes or {}
    outputs = outputs or {}
    new_nodes = list(parent.computational)
    for idx, node in nodes.items():
        new_nodes[idx] = node
    new_outputs = list(parent.output_connections)
    for k, conn in outputs.items():
        new_outputs[k] = conn
    delta = Delta(tuple(nodes), tuple(outputs))
    return Genotype(parent.params, new_nodes, tuple(new_outputs), delta=delta)


# exact zeros and values within PDIV's and LN's 1e-9 guard, and magnitudes
# past EXP's 700 clamp, whose products overflow to the float limit
HARD_VALUES = (0.0, 1e-10, -1e-10, 1e-9, 1.0, -1.0, 750.0, -750.0, 1e200)


def hard_points(num_inputs: int, rng: np.random.Generator) -> np.ndarray:
    columns = [
        np.concatenate([np.roll(HARD_VALUES, i), rng.uniform(-5.0, 5.0, 12)])
        for i in range(num_inputs)
    ]
    return np.column_stack(columns)


# The regression operations as out-of-place formulas on scalars or arrays,
# in function-id order: the reference that the in-place operations of
# `cgp_reorder.functions` must match byte for byte, and that the oracles
# below evaluate with.
def reference_finite(value):
    return np.minimum(np.maximum(value, -VALUE_LIMIT), VALUE_LIMIT)


def reference_add(a, b):
    return reference_finite(np.add(a, b))


def reference_sub(a, b):
    return reference_finite(np.subtract(a, b))


def reference_mul(a, b):
    return reference_finite(np.multiply(a, b))


def reference_protected_div(a, b):
    """a / b, returning 1.0 wherever |b| < 1e-9."""
    guarded = np.abs(b) < PROTECTED_EPS
    safe = np.where(guarded, 1.0, b)
    return reference_finite(np.where(guarded, 1.0, np.asarray(a, dtype=np.float64) / safe))


def reference_sin(a):
    return np.sin(a)


def reference_cos(a):
    return np.cos(a)


def reference_protected_log(a):
    """ln(|a|), returning 0.0 wherever |a| < 1e-9."""
    mag = np.abs(a)
    guarded = mag < PROTECTED_EPS
    return np.where(guarded, 0.0, np.log(np.where(guarded, 1.0, mag)))


def reference_clamped_exp(a):
    """exp(min(a, 700)) so the result never overflows to infinity."""
    return np.exp(np.minimum(a, EXP_CLAMP))


REFERENCE_OPERATIONS = (
    reference_add,
    reference_sub,
    reference_mul,
    reference_protected_div,
    reference_sin,
    reference_cos,
    reference_protected_log,
    reference_clamped_exp,
)


def oracle_evaluate_batch(
    genome: Genotype, xs: np.ndarray, active: ActiveSet | None = None
) -> np.ndarray:
    """Cache-free batched regression evaluation: every active node computed
    from its inputs' values, in position order."""
    params = genome.params
    start = params.comp_start
    if active is None:
        active = decode_active(genome)
    values: list = [None] * params.num_connectable
    for i in range(params.num_inputs):
        values[i] = xs[:, i].astype(np.float64)
    entries = params.functions().entries
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for idx in active.positions():
            node = genome.computational[idx]
            spec = entries[node.function_id]
            args = [values[c] for c in node.connections[: spec.arity]]
            reference = REFERENCE_OPERATIONS[node.function_id]
            values[start + idx] = np.asarray(reference(*args), dtype=np.float64)
    return np.column_stack([values[c] for c in genome.output_connections])


def full_forward_pass(genome: Genotype, inputs, mask: int = 1) -> list:
    """Reference evaluation computing every node, active or not, by calling
    each function directly.

    ``inputs`` holds one value per input: a row of scalars, a column of
    points each, or, for a Boolean genome, packed column bitmasks whose
    ``mask`` has one bit per row.  Returns the value of each output.
    """
    params = genome.params
    fset = params.functions()
    values = dict(enumerate(inputs))
    with np.errstate(all="ignore"):
        for idx, node in enumerate(genome.computational):
            spec = fset.entries[node.function_id]
            args = [values[c] for c in node.connections[: spec.arity]]
            if fset.is_boolean:
                values[params.comp_start + idx] = spec.fn(*args, mask)
            else:
                values[params.comp_start + idx] = REFERENCE_OPERATIONS[node.function_id](*args)
    return [values[c] for c in genome.output_connections]


def oracle_active(genome: Genotype) -> tuple[list[bool], int, list[int]]:
    """Active bitmap, active count and consumer counts of a genome, by one
    sweep from the last node to the first: a node is active when an output
    or an active node's consumed gene references it."""
    params = genome.params
    arities = params.functions().arities
    start = params.comp_start
    active = [False] * params.num_computational
    consumers = [0] * params.num_computational
    for conn in genome.output_connections:
        if conn >= start:
            active[conn - start] = True
            consumers[conn - start] += 1
    for idx in reversed(range(params.num_computational)):
        if not active[idx]:
            continue
        node = genome.computational[idx]
        for conn in node.connections[: arities[node.function_id]]:
            if conn >= start:
                active[conn - start] = True
                consumers[conn - start] += 1
    return active, sum(active), consumers


def oracle_readers(genome: Genotype) -> list[list[int]]:
    """Per computational index, the ascending readers of the node, from the
    oracle's bitmap: one entry per consumed gene of an active node that
    reads it, as that node's index, and one per output gene k that reads
    it, as ``num_computational + k``."""
    params = genome.params
    arities = params.functions().arities
    start = params.comp_start
    num = params.num_computational
    bitmap, _, _ = oracle_active(genome)
    readers = [[] for _ in range(num)]
    for idx in (i for i, on in enumerate(bitmap) if on):
        node = genome.computational[idx]
        for conn in node.connections[: arities[node.function_id]]:
            if conn >= start:
                readers[conn - start].append(idx)
    for k, conn in enumerate(genome.output_connections):
        if conn >= start:
            readers[conn - start].append(num + k)
    return [sorted(entry) for entry in readers]


def sorted_readers(active) -> list[list[int]]:
    """An active set's entries, each sorted: two sets hold the same readers
    exactly when these are equal, whatever order their tuples list them in."""
    return [sorted(entry) for entry in active.readers]


def consumer_counts(active) -> list[int]:
    """How many genes read each node, from an active set's entries."""
    return [len(entry) for entry in active.readers]


def assert_readers_match(active, genome: Genotype) -> None:
    """The active set, decoded, derived or carried, holds the oracle's
    readers for ``genome``; its entries may list them in any order."""
    assert sorted_readers(active) == oracle_readers(genome)


def with_forward_genes(genome: Genotype, rng: np.random.Generator) -> Genotype:
    """A copy whose inactive nodes' genes, and unary nodes' unused genes,
    point forward at random, as a placement leaves them before repair."""
    params = genome.params
    active = decode_active(genome)
    arities = params.functions().arities
    nodes = []
    for idx, node in enumerate(genome.computational):
        conns = list(node.connections)
        for k in range(ARITY):
            free = not active.readers[idx] or k >= arities[node.function_id]
            if free and rng.random() < 0.5:
                conns[k] = int(rng.integers(params.comp_start + idx, params.num_connectable))
        nodes.append(NodeGene(node.function_id, tuple(conns)))
    return Genotype(params, nodes, genome.output_connections)


def reference_original(genome: Genotype, rng) -> Genotype:
    """The topological shuffle of `reorder_original`, set up with arrays:
    every gene that reads a node, grouped by the node it reads through a
    stable argsort (so in (node, gene) order within a group), the group
    bounds by ``searchsorted``, and the unresolved counts by
    ``count_nonzero``.  The Kahn loop and its single batched draw are the
    operator's.  The shuffled genome is remapped through an array position
    map and carries no active set or vector."""
    params = genome.params
    start = params.comp_start
    num = params.num_computational
    if decode_active(genome).count == 0:
        return genome
    conn = np.array([node.connections for node in genome.computational], dtype=np.intp)
    referenced = conn - start
    is_node = referenced >= 0
    sources, _ = np.nonzero(is_node)
    targets = referenced[is_node]
    by_target = np.argsort(targets, kind="stable")
    dependents = sources[by_target].tolist()
    bounds = np.searchsorted(targets[by_target], np.arange(num + 1)).tolist()
    unresolved = np.count_nonzero(is_node, axis=1).tolist()
    ready = [i for i in range(num) if unresolved[i] == 0]
    order = []
    for u in rng.random(num).tolist():
        if not ready:
            break
        pick = int(u * len(ready))
        ready[pick], ready[-1] = ready[-1], ready[pick]
        old_idx = ready.pop()
        order.append(old_idx)
        for dep in dependents[bounds[old_idx] : bounds[old_idx + 1]]:
            unresolved[dep] -= 1
            if unresolved[dep] == 0:
                ready.append(dep)
    assert len(order) == num
    position_map = np.arange(start + num)
    position_map[start + np.array(order)] = np.arange(start, start + num)
    nodes = [
        NodeGene(genome.computational[old].function_id, tuple(genes))
        for old, genes in zip(order, position_map[conn[order]].tolist())
    ]
    outputs = tuple(position_map[list(genome.output_connections)].tolist())
    return Genotype(params, nodes, outputs)


def reference_mutation(genome: Genotype, active: ActiveSet, rng) -> Genotype:
    """`single_mutation` in its plain per-pick form: it copies the nodes
    and the outputs up front; each pick draws the gene, then a value from
    the gene's domain without its current value (``draw + 1`` at or above
    it), and rebuilds the node through a list of its connections.  The loop
    ends at the first changed gene of an active node or at an output gene."""
    params = genome.params
    fset = params.functions()
    genes_per_node = 1 + ARITY
    node_genes = params.num_computational * genes_per_node
    total_genes = node_genes + params.num_outputs

    def excluding(domain_size: int, current: int) -> int:
        draw = int(rng.integers(domain_size - 1))
        return draw + 1 if draw >= current else draw

    nodes = list(genome.computational)
    outputs = list(genome.output_connections)
    changed_nodes: tuple[int, ...] = ()
    changed_outputs: tuple[int, ...] = ()
    while True:
        gene = int(rng.integers(total_genes))
        if gene >= node_genes:
            out_idx = gene - node_genes
            outputs[out_idx] = excluding(params.num_connectable, outputs[out_idx])
            changed_outputs = (out_idx,)
            break
        node_idx, offset = divmod(gene, genes_per_node)
        node = nodes[node_idx]
        if offset == 0:
            nodes[node_idx] = NodeGene(excluding(fset.size, node.function_id), node.connections)
        else:
            position = params.comp_start + node_idx
            if position < 2:
                continue
            conns = list(node.connections)
            conns[offset - 1] = excluding(position, conns[offset - 1])
            nodes[node_idx] = NodeGene(node.function_id, tuple(conns))
        if active.readers[node_idx]:
            changed_nodes = (node_idx,)
            break
    delta = Delta(changed_nodes, changed_outputs)
    return Genotype(params, nodes, tuple(outputs), delta=delta)


def random_genomes(params: GraphParams, count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [random_genome(params, rng) for _ in range(count)]


def packed_inputs(num_inputs: int) -> tuple[list[int], int]:
    """Column bitmasks enumerating all 2^num_inputs input rows."""
    rows = 1 << num_inputs
    masks = [0] * num_inputs
    for r in range(rows):
        for i in range(num_inputs):
            masks[i] |= ((r >> i) & 1) << r
    return masks, (1 << rows) - 1


def validate(genome: Genotype) -> list[str]:
    """Check every genotype invariant; returns one message per violation."""
    params = genome.params
    fset = params.functions()
    start = params.comp_start
    report: list[str] = []
    if len(genome.computational) != params.num_computational:
        report.append(
            f"expected {params.num_computational} computational nodes, "
            f"got {len(genome.computational)}"
        )
    for idx, node in enumerate(genome.computational):
        position = start + idx
        if not 0 <= node.function_id < fset.size:
            report.append(f"node {position}: function id {node.function_id} out of range")
        if len(node.connections) != ARITY:
            report.append(
                f"node {position}: expected {ARITY} connection genes, "
                f"got {len(node.connections)}"
            )
        for k, conn in enumerate(node.connections):
            if not 0 <= conn < position:
                report.append(
                    f"node {position}: connection {k} -> {conn} is not feed-forward"
                )
    if len(genome.output_connections) != params.num_outputs:
        report.append(
            f"expected {params.num_outputs} output connections, "
            f"got {len(genome.output_connections)}"
        )
    for k, conn in enumerate(genome.output_connections):
        if not 0 <= conn < params.num_connectable:
            report.append(
                f"output {k} -> {conn} must reference an input or computational position"
            )
    return report


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The inputs, one row per point, and the targets of a dataset record
    (a header, then ``x0[,x1],y`` rows), each value parsed by ``float``."""
    with open(path) as fh:
        _, *lines = fh.read().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    return rows[:, :-1], rows[:, -1]


def decile_means(probabilities: list[float]) -> list[float]:
    """Mean probability over ten contiguous position blocks."""
    edges = np.linspace(0, len(probabilities), 11).astype(int)
    probs = np.asarray(probabilities)
    return [float(np.mean(probs[a:b])) for a, b in zip(edges, edges[1:])]


# Loop forms of what src now does in one library call each: the reference
# that every replacement must match byte for byte.
def reference_select_parent(parent_fitness, offspring_fitnesses, maximize):
    """Two mirrored scans for the best offspring, lowest index on ties."""
    best = 0
    for i in range(1, len(offspring_fitnesses)):
        if maximize:
            if offspring_fitnesses[i] > offspring_fitnesses[best]:
                best = i
        else:
            if offspring_fitnesses[i] < offspring_fitnesses[best]:
                best = i
    if maximize:
        return best if offspring_fitnesses[best] >= parent_fitness else None
    return best if offspring_fitnesses[best] <= parent_fitness else None


def reference_convergence_mean(traces, grid) -> tuple[list[float], list[float]]:
    """A cursor merge of each trace against the grid, then numpy's plain mean
    and population sd per grid point, zero where the values span nothing."""
    values = np.empty((len(traces), len(grid)))
    for t_idx, trace in enumerate(traces):
        samples = trace.samples
        cursor = 0
        current = samples[0][1]
        for g_idx, point in enumerate(grid):
            while cursor < len(samples) and samples[cursor][0] <= point:
                current = samples[cursor][1]
                cursor += 1
            values[t_idx, g_idx] = current
    sd = np.std(values, axis=0)
    sd[np.ptp(values, axis=0) == 0.0] = 0.0
    return np.mean(values, axis=0).tolist(), sd.tolist()


def reference_active_probabilities(bitmaps: list[str]) -> list[float]:
    """Each bitmap added into a float count vector in turn, then averaged."""
    counts = np.zeros(len(bitmaps[0]))
    for bitmap in bitmaps:
        counts += np.frombuffer(bitmap.encode(), dtype=np.uint8) - ord("0")
    return (counts / len(bitmaps)).tolist()


def reference_grid(start: float, stop: float, step: float) -> np.ndarray:
    """``start + k * step`` for k = 0, 1, ... while it does not pass ``stop``."""
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop:
            break
        values.append(v)
        k += 1
    return np.asarray(values, dtype=np.float64)


def reference_parity3_table() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each row's three input bits, least significant first, and their XOR."""
    rows = []
    for r in range(8):
        bits = tuple((r >> i) & 1 for i in range(3))
        rows.append((bits, (bits[0] ^ bits[1] ^ bits[2],)))
    return rows


BOOLEAN_SHAPES = {
    "parity3": (3, 1),
    "encode16_4": (16, 4),
    "decode4_16": (4, 16),
    "multiply3": (6, 6),
}

REGRESSION_SHAPES = {
    "nguyen7": (1, 1),
    "koza3": (1, 1),
    "pagie1": (2, 1),
    "keijzer6": (1, 1),
}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
