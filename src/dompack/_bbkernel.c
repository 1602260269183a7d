/* Compiled twins of the pure-Python branch-and-bound kernels in _bb_py.py.
 *
 * Same preprocessing, same search state, same greedy incumbents, same
 * branch order and the same tie-breaking as _bb_py: the two backends must
 * return identical (size, mask, nodes) triples.  Masks are limited to 64
 * bits and the hitting-set search to 64 rows after reduction (it raises
 * OverflowError above that); callers route such instances to the pure
 * kernel.
 *
 * A plain CPython extension, built by setup.py with any C99 compiler that
 * provides __builtin_popcountll, __builtin_ctzll and __builtin_clzll (gcc,
 * clang).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>

typedef unsigned long long u64;

#define BIT(v) (1ULL << (v))

static inline int pop64(u64 x) { return __builtin_popcountll(x); }
static inline int ctz64(u64 x) { return __builtin_ctzll(x); }

/* Python int (or any object with __index__) to a 64-bit mask; -1 on error
 * with an exception set (TypeError, or OverflowError outside [0, 2^64)). */
static int
as_u64(PyObject *obj, u64 *out)
{
    PyObject *num = PyNumber_Index(obj);
    if (num == NULL)
        return -1;
    *out = PyLong_AsUnsignedLongLong(num);
    Py_DECREF(num);
    return (*out == (u64)-1 && PyErr_Occurred()) ? -1 : 0;
}

static int
as_ll(PyObject *obj, long long *out)
{
    PyObject *num = PyNumber_Index(obj);
    if (num == NULL)
        return -1;
    *out = PyLong_AsLongLong(num);
    Py_DECREF(num);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* Copy a sequence of masks into a fresh array (NULL + exception on error). */
static u64 *
masks_from_seq(PyObject *seq, Py_ssize_t *len)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of int masks");
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    u64 *out = PyMem_Malloc(sizeof(u64) * n);  /* non-NULL even for n = 0 */
    if (out == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (as_u64(items[i], &out[i]) < 0) {
            PyMem_Free(out);
            Py_DECREF(fast);
            return NULL;
        }
    }
    Py_DECREF(fast);
    *len = n;
    return out;
}

/* ------------------------------------------------------------------------
 * Minimum hitting set
 * ------------------------------------------------------------------------ */

typedef struct {
    u64 r;
    long long owner;
    Py_ssize_t index;
    int pop;
} Req;

/* (popcount, owner, input index): qsort is not stable, so the input index
 * stands in for the stability of Python's sorted(). */
static int
req_cmp(const void *pa, const void *pb)
{
    const Req *a = pa, *b = pb;
    if (a->pop != b->pop)
        return a->pop < b->pop ? -1 : 1;
    if (a->owner != b->owner)
        return a->owner < b->owner ? -1 : 1;
    return (a->index > b->index) - (a->index < b->index);
}

/* The search rows stay fixed and the state is one row mask: cols[v] is the
 * set of rows that contain vertex v, so picking v leaves unsat & ~cols[v].
 * A row mask holds at most 64 rows. */
typedef struct {
    u64 rows[64];
    u64 cols[64];
    int best_size;
    u64 best_mask;
    long long nodes;
} HS;

static void
hs_dfs(HS *st, u64 unsat, u64 chosen, int count)
{
    st->nodes++;
    if (unsat == 0) {
        if (count < st->best_size) {
            st->best_size = count;
            st->best_mask = chosen;
        }
        return;
    }
    /* Disjoint lower bound: pairwise disjoint unsatisfied rows, taken
     * greedily in row order, each need their own vertex. */
    int bound = count;
    u64 used = 0;
    for (u64 u = unsat; u; u &= u - 1) {
        u64 r = st->rows[ctz64(u)];
        if (!(r & used)) {
            bound++;
            used |= r;
        }
    }
    if (bound >= st->best_size)
        return;
    /* Branch on the first unsatisfied row: rows are sorted by req_cmp, so
     * it has fewest candidates, ties by owner id. */
    for (u64 r = st->rows[ctz64(unsat)]; r; r &= r - 1) {
        int v = ctz64(r);
        hs_dfs(st, unsat & ~st->cols[v], chosen | BIT(v), count + 1);
    }
}

/* Greedy incumbent: repeatedly take the vertex hitting most unsatisfied
 * rows, ties by lowest id; vertices from width up are in no row. */
static int
greedy_hitting(const HS *st, int width, u64 unsat, u64 *chosen)
{
    int size = 0;
    *chosen = 0;
    while (unsat) {
        int best_v = 0, best_c = 0;
        for (int v = 0; v < width; v++) {
            int c = pop64(st->cols[v] & unsat);
            if (c > best_c) {
                best_c = c;
                best_v = v;
            }
        }
        *chosen |= BIT(best_v);
        size++;
        unsat &= ~st->cols[best_v];
    }
    return size;
}

static PyObject *
min_hitting_set(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"reqs", "owners", NULL};
    PyObject *reqs_obj, *owners_obj, *owners_fast = NULL, *result = NULL;
    Py_ssize_t n = 0;
    u64 *masks = NULL;
    Req *order = NULL;
    HS st = {{0}, {0}, 0, 0, 0};

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO:min_hitting_set", kwlist,
                                     &reqs_obj, &owners_obj))
        return NULL;
    masks = masks_from_seq(reqs_obj, &n);
    if (masks == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (masks[i] == 0) {
            result = Py_BuildValue("(iii)", -1, 0, 0);
            goto done;
        }
    }
    if (n == 0) {
        result = Py_BuildValue("(iii)", 0, 0, 1);
        goto done;
    }
    owners_fast = PySequence_Fast(owners_obj, "expected a sequence of owner ids");
    if (owners_fast == NULL)
        goto done;
    if (PySequence_Fast_GET_SIZE(owners_fast) != n) {
        PyErr_SetString(PyExc_ValueError, "reqs and owners differ in length");
        goto done;
    }
    order = PyMem_Malloc(sizeof(Req) * n);
    if (order == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    PyObject **owner_items = PySequence_Fast_ITEMS(owners_fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        order[i].r = masks[i];
        order[i].pop = pop64(masks[i]);
        order[i].index = i;
        if (as_ll(owner_items[i], &order[i].owner) < 0)
            goto done;
    }
    qsort(order, n, sizeof(Req), req_cmp);

    /* Drop requirements that are supersets of a kept one: hitting the
     * subset hits them for free. */
    int m = 0;
    u64 universe = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        u64 r = order[k].r;
        int dominated = 0;
        for (int j = 0; j < m && !dominated; j++)
            dominated = (st.rows[j] & r) == st.rows[j];
        if (dominated)
            continue;
        if (m == 64) {
            PyErr_SetString(PyExc_OverflowError,
                            "more than 64 requirements left after reduction");
            goto done;
        }
        for (u64 u = r; u; u &= u - 1)
            st.cols[ctz64(u)] |= BIT(m);
        st.rows[m++] = r;
        universe |= r;
    }

    u64 everything = m == 64 ? ~0ULL : BIT(m) - 1;
    int width = 64 - __builtin_clzll(universe);
    st.best_size = greedy_hitting(&st, width, everything, &st.best_mask);
    hs_dfs(&st, everything, 0, 0);
    result = Py_BuildValue("(iKL)", st.best_size, st.best_mask, st.nodes);

done:
    PyMem_Free(order);
    PyMem_Free(masks);
    Py_XDECREF(owners_fast);
    return result;
}

/* ------------------------------------------------------------------------
 * Maximum independent set
 * ------------------------------------------------------------------------ */

typedef struct {
    const u64 *adj;
    int best_size;
    u64 best_mask;
    long long nodes;
} MIS;

/* Greedy clique cover of the candidates in id order: an upper bound on the
 * independent sets among them. */
static int
clique_cover(const u64 *adj, u64 cand)
{
    u64 cliques[64];
    int nc = 0;
    for (u64 u = cand; u; u &= u - 1) {
        int v = ctz64(u);
        int placed = 0;
        for (int i = 0; i < nc; i++) {
            if ((cliques[i] & adj[v]) == cliques[i]) {
                cliques[i] |= BIT(v);
                placed = 1;
                break;
            }
        }
        if (!placed)
            cliques[nc++] = BIT(v);
    }
    return nc;
}

static void
mis_dfs(MIS *st, u64 cand, u64 chosen, int count)
{
    st->nodes++;
    if (cand == 0) {
        if (count > st->best_size) {
            st->best_size = count;
            st->best_mask = chosen;
        }
        return;
    }
    if (count + clique_cover(st->adj, cand) <= st->best_size)
        return;
    /* Branch on the candidate of highest remaining degree, ties by id. */
    int bv = -1, bd = -1;
    for (u64 u = cand; u; u &= u - 1) {
        int v = ctz64(u);
        int d = pop64(st->adj[v] & cand);
        if (d > bd) {
            bd = d;
            bv = v;
        }
    }
    u64 bit = BIT(bv);
    mis_dfs(st, cand & ~(st->adj[bv] | bit), chosen | bit, count + 1);
    mis_dfs(st, cand & ~bit, chosen, count);
}

/* Greedy incumbent: candidates by (degree within candidates, id), each taken
 * when no neighbour was taken before it. */
static int
greedy_independent(const u64 *adj, u64 cand, u64 *chosen)
{
    int verts[64], deg[64], nv = 0, size = 0;
    for (u64 u = cand; u; u &= u - 1) {
        int v = ctz64(u), d = pop64(adj[v] & cand);
        /* Insertion sort; ids arrive ascending, so ties keep id order. */
        int i = nv++;
        while (i > 0 && deg[i - 1] > d) {
            verts[i] = verts[i - 1];
            deg[i] = deg[i - 1];
            i--;
        }
        verts[i] = v;
        deg[i] = d;
    }
    *chosen = 0;
    for (int i = 0; i < nv; i++) {
        if (!(adj[verts[i]] & *chosen)) {
            *chosen |= BIT(verts[i]);
            size++;
        }
    }
    return size;
}

static PyObject *
max_independent_set(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"adj", "cand", NULL};
    PyObject *adj_obj, *cand_obj, *result = NULL;
    Py_ssize_t n = 0;
    u64 cand;
    MIS st = {NULL, 0, 0, 0};

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO:max_independent_set", kwlist,
                                     &adj_obj, &cand_obj))
        return NULL;
    if (as_u64(cand_obj, &cand) < 0)
        return NULL;
    u64 *adj = masks_from_seq(adj_obj, &n);
    if (adj == NULL)
        return NULL;
    if (n < 64 && (cand >> n)) {
        PyErr_SetString(PyExc_IndexError, "candidate id outside the adjacency list");
        goto done;
    }
    st.adj = adj;
    st.best_size = greedy_independent(adj, cand, &st.best_mask);
    mis_dfs(&st, cand, 0, 0);
    result = Py_BuildValue("(iKL)", st.best_size, st.best_mask, st.nodes);

done:
    PyMem_Free(adj);
    return result;
}

/* ------------------------------------------------------------------------
 * Module
 * ------------------------------------------------------------------------ */

static PyMethodDef methods[] = {
    {"min_hitting_set", (PyCFunction)(void (*)(void))min_hitting_set,
     METH_VARARGS | METH_KEYWORDS,
     "min_hitting_set(reqs, owners)\n--\n\n"
     "Minimum-size vertex set meeting every requirement mask (64-bit).\n"
     "Returns (size, chosen_mask, nodes_explored); size -1 if some\n"
     "requirement is empty."},
    {"max_independent_set", (PyCFunction)(void (*)(void))max_independent_set,
     METH_VARARGS | METH_KEYWORDS,
     "max_independent_set(adj, cand)\n--\n\n"
     "Maximum independent set within the candidate mask (64-bit).\n"
     "Returns (size, chosen_mask, nodes_explored)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "dompack._bbkernel",
    .m_doc = "Compiled twins of the pure-Python branch-and-bound kernels (64-bit masks).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__bbkernel(void)
{
    return PyModule_Create(&module);
}
