"""Independent straight-line reimplementations used as oracles.

Everything here is written as plain loops over Python scalars (complex
numbers for the rotation model), sharing no code with the package. Slow
on purpose; meant for tiny inputs.
"""

import cmath
import math
import warnings

import numpy as np


def sigmoid(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def vec_norm(values, p):
    if p == 1:
        return math.fsum(abs(v) for v in values)
    return math.sqrt(math.fsum(v * v for v in values))


def matvec_residual(row, matrix, base):
    """row @ matrix + base, written out by hand."""
    n = len(row)
    out = []
    for j in range(n):
        out.append(math.fsum(row[i] * matrix[i][j] for i in range(n)) + base[j])
    return out


def hie_score_oracle(params, config, h, r, t):
    """Scalar-loop scoring of one triple: returns (d_terms, s_terms, total)."""
    half = config.dim // 2
    ent = params.ent
    rel = params.rel
    h0 = [float(v) for v in ent[h][:half]]
    h1 = [float(v) for v in ent[h][half:]]
    t0 = [float(v) for v in ent[t][:half]]
    t1 = [float(v) for v in ent[t][half:]]
    r0 = [float(v) for v in rel[r][:half]]
    r1 = [float(v) for v in rel[r][half:]]

    hp = [float(params.proj_head_dist[i]) * h0[i] for i in range(half)]
    tp = [float(params.proj_tail_dist[i]) * t0[i] for i in range(half)]
    rp = [float(params.proj_rel_dist[i]) * r0[i] for i in range(half)]
    hs = [float(params.proj_head_sem[i]) * h1[i] for i in range(half)]
    ts = [float(params.proj_tail_sem[i]) * t1[i] for i in range(half)]
    rs = [float(params.proj_rel_sem[i]) * r1[i] for i in range(half)]

    alpha = sigmoid(float(params.blend_logit))
    d_terms, s_terms = [], []
    total = 0.0
    for level in range(1, config.levels + 1):
        if level > 1:
            ed = [[float(v) for v in row] for row in params.extract_dist[level - 2]]
            es = [[float(v) for v in row] for row in params.extract_sem[level - 2]]
            hp = matvec_residual(hp, ed, h0)
            tp = matvec_residual(tp, ed, t0)
            rp = matvec_residual(rp, ed, r0)
            hs = matvec_residual(hs, es, h1)
            ts = matvec_residual(ts, es, t1)
            rs = matvec_residual(rs, es, r1)
        deep = level >= 2
        dist_on = not config.disable_distance and not (deep and config.disable_distance_deep)
        sem_on = not config.disable_semantic and not (deep and config.disable_semantic_deep)
        if dist_on and sem_on:
            w_dist, w_sem = alpha, 1.0 - alpha
        elif dist_on:
            w_dist, w_sem = 1.0, 0.0
        elif sem_on:
            w_dist, w_sem = 0.0, 1.0
        else:
            w_dist, w_sem = 0.0, 0.0

        seed = [float(v) for v in params.transform_seed[level - 1]]
        if dist_on:
            if config.transform == "diagonal":
                u = [hp[i] * seed[i] * rp[i] - tp[i] for i in range(half)]
            else:
                inner = math.fsum(hp[i] * seed[i] for i in range(half))
                u = [inner * rp[i] - tp[i] for i in range(half)]
            d = vec_norm(u, config.norm_p)
        else:
            d = 0.0
        if sem_on:
            v = [hs[i] + rs[i] - ts[i] for i in range(half)]
            s = vec_norm(v, 2)
        else:
            s = 0.0
        d_terms.append(d)
        s_terms.append(s)
        total += float(config.lambdas[level - 1]) * (w_dist * d + w_sem * s)
    return d_terms, s_terms, total


def transe_oracle(params, h, r, t, p):
    dim = params.ent.shape[1]
    u = [float(params.ent[h][i]) + float(params.rel[r][i]) - float(params.ent[t][i]) for i in range(dim)]
    return vec_norm(u, p)


def distmult_oracle(params, h, r, t):
    dim = params.ent.shape[1]
    return -math.fsum(
        float(params.ent[h][i]) * float(params.rel[r][i]) * float(params.ent[t][i])
        for i in range(dim)
    )


def rotate_oracle(params, h, r, t):
    half = params.ent.shape[1] // 2
    acc = 0.0
    for j in range(half):
        hc = complex(float(params.ent[h][2 * j]), float(params.ent[h][2 * j + 1]))
        tc = complex(float(params.ent[t][2 * j]), float(params.ent[t][2 * j + 1]))
        rot = cmath.exp(1j * float(params.rel[r][j]))
        acc += abs(hc * rot - tc) ** 2
    return math.sqrt(acc)


def loss_oracle(pos_scores, neg_scores, weights, gamma):
    """Extended-precision loss via 80-bit longdouble arithmetic."""
    ld = np.longdouble
    pos = np.atleast_1d(np.asarray(pos_scores)).astype(ld)
    neg = np.asarray(neg_scores).astype(ld).reshape(len(pos), -1)
    w = np.asarray(weights).astype(ld).reshape(neg.shape)

    def softplus(x):
        return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, ld(0))

    per = softplus(pos - ld(gamma)) + np.sum(w * softplus(ld(gamma) - neg), axis=-1)
    return float(np.mean(per))


def rank_oracle(score_of, num_candidates, true_entity, filter_set, pessimistic=True):
    """Rank by rescoring every candidate individually and counting."""
    true_score = score_of(true_entity)
    rank = 1
    for c in range(num_candidates):
        if c == true_entity or c in filter_set:
            continue
        s = score_of(c)
        if s < true_score or (pessimistic and s == true_score):
            rank += 1
    return rank


def metrics_oracle(rank_pairs):
    """fsum-based MR/MRR/Hits over a list of (head_rank, tail_rank)."""
    ranks = [x for pair in rank_pairs for x in pair]
    n = len(ranks)
    return {
        "mr": math.fsum(ranks) / n,
        "mrr": math.fsum(1.0 / x for x in ranks) / n,
        "hits1": sum(1 for x in ranks if x <= 1) / n,
        "hits3": sum(1 for x in ranks if x <= 3) / n,
        "hits10": sum(1 for x in ranks if x <= 10) / n,
    }


def load_triples_oracle(path, entity_vocab, relation_vocab):
    """Line-by-line triple reader: (triples, entity_vocab, relation_vocab).

    Iterates the file in text mode with newline="", so a line ends at
    LF, CRLF or a lone CR, and with encoding "utf-8-sig", so a byte-order
    mark that starts the file is dropped. Grows the vocabularies in place
    as it reads, drops repeated triples with one warning, and raises
    ValueError with the loader's message on the first malformed line (a
    wrong field count or an empty name) or on text that is not UTF-8.
    """
    triples = []
    seen = set()
    dupes = 0
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:
            for lineno, line in enumerate(f, start=1):
                fields = line.rstrip("\r\n").split("\t")
                if len(fields) != 3:
                    raise ValueError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                    )
                for role, name in zip(("head", "relation", "tail"), fields):
                    if name == "":
                        raise ValueError(f"{path}:{lineno}: empty {role} name")
                h_name, r_name, t_name = fields
                h = entity_vocab.setdefault(h_name, len(entity_vocab))
                r = relation_vocab.setdefault(r_name, len(relation_vocab))
                t = entity_vocab.setdefault(t_name, len(entity_vocab))
                if (h, r, t) in seen:
                    dupes += 1
                    continue
                seen.add((h, r, t))
                triples.append((h, r, t))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if dupes:
        warnings.warn(f"{path}: dropped {dupes} duplicate triple line(s)")
    return np.array(triples, dtype=np.int64).reshape(-1, 3), entity_vocab, relation_vocab


def filter_index_oracle(*splits):
    """(tails_of, heads_of): (head, rel) -> set of tails and (rel, tail) -> set of heads."""
    tails_of, heads_of = {}, {}
    for split in splits:
        for h, r, t in split:
            tails_of.setdefault((int(h), int(r)), set()).add(int(t))
            heads_of.setdefault((int(r), int(t)), set()).add(int(h))
    return tails_of, heads_of


def classify_relations_oracle(train, eta):
    """rel -> (category, hco, tcs), counted one triple at a time."""
    counts, heads, tails = {}, {}, {}
    for h, r, t in train:
        r = int(r)
        counts[r] = counts.get(r, 0) + 1
        heads.setdefault(r, set()).add(int(h))
        tails.setdefault(r, set()).add(int(t))
    categories = {}
    for r, n in counts.items():
        hco = n / len(tails[r])
        tcs = n / len(heads[r])
        head_side = "N" if hco >= eta else "1"
        tail_side = "N" if tcs >= eta else "1"
        categories[r] = (f"{head_side}-to-{tail_side}", hco, tcs)
    return categories
