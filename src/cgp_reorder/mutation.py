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
by one at or above the current value.  Both draws are Lemire's, taken
inline from the draw feed's 32-bit halves (see :mod:`cgp_reorder.draws`);
a rejection candidate, a bound of 1 and the end of the converted halves go
to the feed's slow path.  A plain ``Generator`` is wrapped in a feed for
the call and flushed after it.  The outputs are copied only when an output
gene ends the loop.

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
    genome: Genotype, active: ActiveSet, rng: DrawFeed | np.random.Generator
) -> Genotype:
    """Return a mutant differing from ``genome`` in at least one active gene."""
    feed = rng if isinstance(rng, DrawFeed) else DrawFeed(rng)
    params = genome.params
    functions_less_one = params.functions().size - 1
    outputs_less_one = params.num_connectable - 1
    inputs_less_one = params.comp_start - 1
    node_genes = params.num_computational * _GENES_PER_NODE
    total_genes = node_genes + params.num_outputs
    readers = active.readers
    outputs = genome.output_connections
    nodes = list(genome.computational)
    halves, at = feed.halves, feed.at
    end = len(halves)

    while True:
        if at < end and (product := halves[at] * total_genes) & 0xFFFFFFFF >= total_genes:
            at += 1
            gene = product >> 32
        else:
            gene, at = feed.integer_at(at, total_genes)
            end = len(halves)
        if gene >= node_genes:
            # output connection gene; domain is every input or computational
            # position, always at least two wide
            out_idx = gene - node_genes
            bound, current = outputs_less_one, outputs[out_idx]
        else:
            node_idx, offset = divmod(gene, _GENES_PER_NODE)
            node = nodes[node_idx]
            if offset == 0:
                bound, current = functions_less_one, node.function_id
            else:
                # the domain is every position before the node's own
                bound = inputs_less_one + node_idx
                if bound < 1:
                    # a first computational node fed by a single input has a
                    # one-value connection domain: counts as a pick, changes
                    # nothing, so it can never be the terminating active hit
                    continue
                current = node.connections[offset - 1]
        if bound > 1 and at < end and (product := halves[at] * bound) & 0xFFFFFFFF >= bound:
            at += 1
            draw = product >> 32
        else:
            draw, at = feed.integer_at(at, bound)
            end = len(halves)
        value = draw + 1 if draw >= current else draw
        if gene >= node_genes:
            changed = list(outputs)
            changed[out_idx] = value
            mutant = Genotype(params, nodes, tuple(changed), delta=Delta((), (out_idx,)))
            break
        if offset == 0:
            nodes[node_idx] = NodeGene(value, node.connections)
        elif offset == 1:
            nodes[node_idx] = NodeGene(node.function_id, (value, node.connections[1]))
        else:
            nodes[node_idx] = NodeGene(node.function_id, (node.connections[0], value))
        if readers[node_idx]:
            mutant = Genotype(params, nodes, outputs, delta=Delta((node_idx,), ()))
            break

    feed.at = at
    if feed is not rng:
        feed.flush()
    return mutant
