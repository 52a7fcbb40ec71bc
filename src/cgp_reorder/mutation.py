"""Single mutation: resample random genes until one on the active path changes.

The gene universe is every computational function gene, every computational
connection gene, and every output connection gene, all weighted equally.
Each pick resamples the gene uniformly from its legal domain excluding the
current value (when the domain holds more than one value, so a pick always
changes something).  The loop stops at the first changed gene that belongs
to an active computational node or is an output connection; output genes
always count as active because changing one changes the phenotype.

Activity is tested against the parent's decoded active set, not recomputed
between gene picks, keeping one mutation call O(arity * nodes).  The mutant
records in its ``delta`` the active node or the output gene that ended the
loop, so the decoder and the evaluators work on that change alone.  The
inactive nodes changed before it matter only if that change activates
them, and the decoder finds those.
"""

from __future__ import annotations

import numpy as np

from .genome import ARITY, ActiveSet, Delta, Genotype, NodeGene


def _resample_excluding(rng: np.random.Generator, domain_size: int, current: int) -> int:
    """Uniform draw from [0, domain_size) excluding ``current``.

    Requires domain_size >= 2.
    """
    draw = int(rng.integers(domain_size - 1))
    return draw + 1 if draw >= current else draw


def single_mutation(
    genome: Genotype, active: ActiveSet, rng: np.random.Generator
) -> Genotype:
    """Return a mutant differing from ``genome`` in at least one active gene."""
    params = genome.params
    fset = params.functions()
    num_nodes = params.num_computational
    genes_per_node = 1 + ARITY
    node_genes = num_nodes * genes_per_node
    total_genes = node_genes + params.num_outputs

    nodes = list(genome.computational)
    outputs = list(genome.output_connections)
    changed_nodes: tuple[int, ...] = ()
    changed_outputs: tuple[int, ...] = ()

    while True:
        gene = int(rng.integers(total_genes))
        if gene >= node_genes:
            # output connection gene; domain is every input or computational
            # position, always at least two wide
            out_idx = gene - node_genes
            outputs[out_idx] = _resample_excluding(
                rng, params.num_connectable, outputs[out_idx]
            )
            changed_outputs = (out_idx,)
            break
        node_idx, offset = divmod(gene, genes_per_node)
        node = nodes[node_idx]
        if offset == 0:
            new_fid = _resample_excluding(rng, fset.size, node.function_id)
            nodes[node_idx] = NodeGene(new_fid, node.connections)
        else:
            position = params.comp_start + node_idx
            if position < 2:
                # a first computational node fed by a single input has a
                # one-value connection domain: counts as a pick, changes
                # nothing, so it can never be the terminating active hit
                continue
            conn_idx = offset - 1
            conns = list(node.connections)
            conns[conn_idx] = _resample_excluding(rng, position, conns[conn_idx])
            nodes[node_idx] = NodeGene(node.function_id, tuple(conns))
        if active.readers[node_idx]:
            changed_nodes = (node_idx,)
            break

    delta = Delta(changed_nodes, changed_outputs)
    return Genotype(params, nodes, tuple(outputs), delta=delta)
