"""Single mutation: resample random genes until one on the active path changes.

The gene universe is every computational function gene, every computational
connection gene, and every output connection gene, all weighted equally.
Each pick resamples the gene uniformly from its legal domain excluding the
current value (when the domain holds more than one value, so a pick always
changes something).  The loop stops at the first changed gene that belongs
to an active computational node or is an output connection; output genes
always count as active because changing one changes the phenotype.

One call copies the node list once, then makes two draws per pick: the
gene, and its new value, drawn below the domain size less one and moved up
by one at or above the current value.  The outputs are copied only when an
output gene ends the loop.

Activity is tested against the parent's decoded active set, not recomputed
between gene picks, keeping one mutation call O(arity * nodes).  The mutant
records in its ``delta`` the active node or the output gene that ended the
loop, so the decoder and the evaluators work on that change alone.  The
inactive nodes changed before it matter only if that change activates
them, and the decoder finds those.
"""

from __future__ import annotations

import numpy as np

from .draws import DrawFeed
from .genome import ARITY, ActiveSet, Delta, Genotype, NodeGene

_GENES_PER_NODE = 1 + ARITY


def single_mutation(
    genome: Genotype, active: ActiveSet, rng: np.random.Generator
) -> Genotype:
    """Return a mutant differing from ``genome`` in at least one active gene."""
    params = genome.params
    functions_less_one = params.functions().size - 1
    start = params.comp_start
    node_genes = params.num_computational * _GENES_PER_NODE
    total_genes = node_genes + params.num_outputs
    readers = active.readers
    # a plain Generator draws numpy ints, which a genome never holds
    integers = rng.integers if isinstance(rng, DrawFeed) else lambda b: int(rng.integers(b))
    nodes = list(genome.computational)

    while True:
        gene = integers(total_genes)
        if gene >= node_genes:
            # output connection gene; domain is every input or computational
            # position, always at least two wide
            out_idx = gene - node_genes
            outputs = list(genome.output_connections)
            current = outputs[out_idx]
            draw = integers(params.num_connectable - 1)
            outputs[out_idx] = draw + 1 if draw >= current else draw
            return Genotype(params, nodes, tuple(outputs), delta=Delta((), (out_idx,)))
        node_idx, offset = divmod(gene, _GENES_PER_NODE)
        node = nodes[node_idx]
        if offset == 0:
            current = node.function_id
            draw = integers(functions_less_one)
            nodes[node_idx] = NodeGene(draw + 1 if draw >= current else draw, node.connections)
        else:
            position = start + node_idx
            if position < 2:
                # a first computational node fed by a single input has a
                # one-value connection domain: counts as a pick, changes
                # nothing, so it can never be the terminating active hit
                continue
            first, second = node.connections
            draw = integers(position - 1)
            if offset == 1:
                genes = (draw + 1 if draw >= first else draw, second)
            else:
                genes = (first, draw + 1 if draw >= second else draw)
            nodes[node_idx] = NodeGene(node.function_id, genes)
        if readers[node_idx]:
            delta = Delta((node_idx,), ())
            return Genotype(params, nodes, genome.output_connections, delta=delta)
