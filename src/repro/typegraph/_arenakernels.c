/* Native arena kernels for the type-graph hot path.
 *
 * Compiled lazily by repro/typegraph/_native.py with the system C
 * compiler; everything here mirrors the pure-Python kernels in
 * _python.py / widenloop.py / pybuilder.py step for step, so results are
 * bit-identical.  Every result is identified by its canonical key
 * (flat int32 bytes, see repro.typegraph.grammar and
 * repro.domains.pattern) and probed in the one process-wide intern
 * table of its kind straight from C; only a miss calls back into
 * Python, to mint the handle (gid/sid + key, Python form decoded
 * lazily), and this module only ever hands back the canonical
 * interned objects.
 *
 * Layout:
 *   1. int64 open-addressing map (registries, memo tables, worklists)
 *   2. symbol registry mirroring repro.typegraph.grammar.SYMBOLS
 *   3. per-grammar arena structs (CSR rows keyed by gid, built from
 *      the canonical key)
 *   4. dense normalization (nonempty / prune / absorb / cap /
 *      partition refinement / BFS renumber -> canonical key ->
 *      intern-table probe)
 *   5. grammar operations: le / union / intersect / functor /
 *      subgrammar / split, with C-side memo tables
 *   6. pattern-layer walks: value_of / subst_le over frozen
 *      substitution structs
 *   7. the KNode union-find builder (unify / constrain / fork /
 *      freeze / instantiate)
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

/* ------------------------------------------------------------------ */
/* small utilities                                                     */

static double now_seconds(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

/* int64 -> int64 open-addressing hash map (sentinel key INT64_MIN). */

#define IMAP_EMPTY INT64_MIN

typedef struct {
    int64_t *keys;
    int64_t *vals;
    size_t cap;     /* power of two */
    size_t count;
} IMap;

static int imap_init(IMap *m, size_t cap_hint) {
    size_t cap = 16;
    while (cap < cap_hint * 2) cap <<= 1;
    m->keys = (int64_t *)malloc(cap * sizeof(int64_t));
    m->vals = (int64_t *)malloc(cap * sizeof(int64_t));
    if (!m->keys || !m->vals) {
        free(m->keys); free(m->vals);
        m->keys = m->vals = NULL;
        return -1;
    }
    for (size_t i = 0; i < cap; i++) m->keys[i] = IMAP_EMPTY;
    m->cap = cap;
    m->count = 0;
    return 0;
}

static void imap_free(IMap *m) {
    free(m->keys); free(m->vals);
    m->keys = m->vals = NULL;
    m->cap = m->count = 0;
}

static size_t imap_slot(const IMap *m, int64_t key) {
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    size_t i = (size_t)(h >> 17) & (m->cap - 1);
    while (m->keys[i] != IMAP_EMPTY && m->keys[i] != key)
        i = (i + 1) & (m->cap - 1);
    return i;
}

static int imap_grow(IMap *m) {
    IMap bigger;
    if (imap_init(&bigger, m->cap) < 0) return -1;  /* init doubles */
    for (size_t i = 0; i < m->cap; i++) {
        if (m->keys[i] == IMAP_EMPTY) continue;
        size_t j = imap_slot(&bigger, m->keys[i]);
        bigger.keys[j] = m->keys[i];
        bigger.vals[j] = m->vals[i];
        bigger.count++;
    }
    imap_free(m);
    *m = bigger;
    return 0;
}

/* returns 1 found (val filled), 0 missing */
static int imap_get(const IMap *m, int64_t key, int64_t *val) {
    if (!m->cap) return 0;
    size_t i = imap_slot(m, key);
    if (m->keys[i] == IMAP_EMPTY) return 0;
    *val = m->vals[i];
    return 1;
}

static int imap_put(IMap *m, int64_t key, int64_t val) {
    if (!m->cap && imap_init(m, 8) < 0) return -1;
    if ((m->count + 1) * 4 >= m->cap * 3 && imap_grow(m) < 0) return -1;
    size_t i = imap_slot(m, key);
    if (m->keys[i] == IMAP_EMPTY) {
        m->keys[i] = key;
        m->count++;
    }
    m->vals[i] = val;
    return 0;
}

/* growable int array */
typedef struct { int *data; int len, cap; } IVec;

static int ivec_push(IVec *v, int x) {
    if (v->len == v->cap) {
        int cap = v->cap ? v->cap * 2 : 64;
        int *data = (int *)realloc(v->data, (size_t)cap * sizeof(int));
        if (!data) return -1;
        v->data = data; v->cap = cap;
    }
    v->data[v->len++] = x;
    return 0;
}

static void ivec_free(IVec *v) { free(v->data); v->data = NULL; v->len = v->cap = 0; }

/* ------------------------------------------------------------------ */
/* module state                                                        */

/* callbacks + canonical objects, filled by init() */
static PyObject *cb_grammar_of_key; /* key bytes -> interned Grammar */
static PyObject *cb_pattern;       /* () -> repro.domains.pattern (lazy) */
static PyObject *cb_subst_of_key;  /* (sv, key, leaves) -> AbstractSubst */
static PyObject *cb_sym_rows;      /* start -> [(kind, name, arity), ...] */
static PyObject *cb_sym;           /* (kind, name, arity) -> symbol id */
static PyObject *obj_grammar_table; /* key bytes -> KeyedRef(Grammar) */
static PyObject *obj_subst_table;  /* key bytes -> KeyedRef(AbstractSubst) */
static PyObject *obj_pat_bottom;   /* PAT_BOTTOM */
static PyObject *obj_sym_ids;      /* (kind, name, arity) -> symbol id */
static PyObject *obj_any;          /* the interned Any grammar */
static PyObject *obj_bottom;       /* the interned bottom grammar */
static PyObject *s_gid;            /* "gid" */
static PyObject *s_sid;            /* "sid" */
static PyObject *s_ckey;           /* "_ckey" */
static PyObject *s_leaves;         /* "_leaves" */
static PyObject *s_kind_f;         /* "f" */
static PyObject *s_kind_i;         /* "i" */

/* The C->Python boundary: every call back into Python goes through
 * CALLBACK, which counts it and, while profiling, times it. */
static long g_cb_calls = 0;
static double g_cb_secs = 0.0;
static int g_profile = 0;
static long g_compiles = 0;

#define CALLBACK(var, expr) do { \
    double _cb0 = g_profile ? now_seconds() : 0.0; \
    var = (expr); \
    g_cb_calls++; \
    if (g_profile) g_cb_secs += now_seconds() - _cb0; \
} while (0)

/* symbol registry (mirrors arena.SYMBOLS, synced lazily) */
typedef struct {
    char kind;              /* 'f' or 'i' */
    char is_literal;
    int arity;
    const char *name;       /* UTF-8, owned by name_obj */
    Py_ssize_t name_len;
    PyObject *name_obj;     /* strong ref keeping `name` alive */
} SymInfo;

static SymInfo *g_syms = NULL;
static int g_nsyms = 0, g_syms_cap = 0;

/* fkey order: (kind, name, arity); UTF-8 byte order == code point order */
static int fkey_cmp(int a, int b) {
    const SymInfo *x = &g_syms[a], *y = &g_syms[b];
    if (x->kind != y->kind) return x->kind < y->kind ? -1 : 1;
    Py_ssize_t n = x->name_len < y->name_len ? x->name_len : y->name_len;
    int c = memcmp(x->name, y->name, (size_t)n);
    if (c) return c;
    if (x->name_len != y->name_len)
        return x->name_len < y->name_len ? -1 : 1;
    if (x->arity != y->arity) return x->arity < y->arity ? -1 : 1;
    return 0;
}

/* pull rows [start..) from the Python symbol table */
static int ensure_syms(int sym) {
    if (sym < g_nsyms) return 0;
    PyObject *rows;
    CALLBACK(rows, PyObject_CallFunction(cb_sym_rows, "i", g_nsyms));
    if (!rows) return -1;
    Py_ssize_t n = PyList_Size(rows);
    if (n < 0) { Py_DECREF(rows); return -1; }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *row = PyList_GET_ITEM(rows, i);
        PyObject *kind_o = PyTuple_GET_ITEM(row, 0);
        PyObject *name_o = PyTuple_GET_ITEM(row, 1);
        PyObject *arity_o = PyTuple_GET_ITEM(row, 2);
        if (g_nsyms == g_syms_cap) {
            int cap = g_syms_cap ? g_syms_cap * 2 : 256;
            SymInfo *bigger = (SymInfo *)realloc(
                g_syms, (size_t)cap * sizeof(SymInfo));
            if (!bigger) { Py_DECREF(rows); PyErr_NoMemory(); return -1; }
            g_syms = bigger; g_syms_cap = cap;
        }
        SymInfo *info = &g_syms[g_nsyms];
        const char *kind = PyUnicode_AsUTF8(kind_o);
        if (!kind) { Py_DECREF(rows); return -1; }
        info->kind = kind[0];
        info->is_literal = (kind[0] == 'i');
        info->arity = (int)PyLong_AsLong(arity_o);
        info->name = PyUnicode_AsUTF8AndSize(name_o, &info->name_len);
        if (!info->name) { Py_DECREF(rows); return -1; }
        Py_INCREF(name_o);
        info->name_obj = name_o;
        g_nsyms++;
    }
    Py_DECREF(rows);
    if (sym >= g_nsyms) {
        PyErr_Format(PyExc_RuntimeError,
                     "symbol %d missing from symbol table", sym);
        return -1;
    }
    return 0;
}

/* the symbol id of (kind, name, arity): a probe of SYMBOLS._ids,
 * allocating through SYMBOLS.sym on a miss; -1 on error */
static int sym_lookup(int is_int, PyObject *name, int arity) {
    PyObject *key = Py_BuildValue("(OOi)", is_int ? s_kind_i : s_kind_f,
                                  name, arity);
    if (!key) return -1;
    PyObject *o = PyDict_GetItemWithError(obj_sym_ids, key);  /* borrowed */
    if (o) {
        Py_INCREF(o);
    } else if (!PyErr_Occurred()) {
        CALLBACK(o, PyObject_CallObject(cb_sym, key));
    }
    Py_DECREF(key);
    if (!o) return -1;
    long sym = PyLong_AsLong(o);
    Py_DECREF(o);
    if (sym == -1 && PyErr_Occurred()) return -1;
    if (ensure_syms((int)sym) < 0) return -1;
    return (int)sym;
}

/* probe an intern table (the dict behind a WeakValueDictionary) for a
 * live entry: a NEW reference, or NULL (error set only on failure) */
static PyObject *table_probe(PyObject *table, PyObject *key) {
    PyObject *ref = PyDict_GetItemWithError(table, key);  /* borrowed */
    if (!ref) return NULL;
    PyObject *obj = PyWeakref_GetObject(ref);              /* borrowed */
    if (!obj || obj == Py_None) return NULL;
    Py_INCREF(obj);
    return obj;
}

/* per-grammar arena (dense rows, fkey-sorted, like GrammarArena) */
typedef struct {
    int n;
    int root;
    unsigned char *flags;   /* bit0 ANY, bit1 INT */
    int *row_start;         /* n+1 prefix over alts */
    int *alt_sym;           /* nalts */
    int *arg_start;         /* nalts+1 prefix over args */
    int *args;              /* total args */
    int nalts;
    PyObject *grammar;      /* strong ref: keeps gid -> struct valid */
} CArena;

static IMap g_arena_map;    /* gid -> (CArena *) */

static void carena_free(CArena *a) {
    free(a->flags); free(a->row_start); free(a->alt_sym);
    free(a->arg_start); free(a->args);
    Py_XDECREF(a->grammar);
    free(a);
}

static long get_gid(PyObject *g) {
    PyObject *o = PyObject_GetAttr(g, s_gid);
    if (!o) return -2;
    long gid = PyLong_AsLong(o);
    Py_DECREF(o);
    if (gid == -1 && PyErr_Occurred()) return -2;
    return gid;
}

/* register the arena struct of interned grammar `gid` from its
 * canonical key [n, per nt: flags, nrows, (sym, args...)...] (root 0,
 * argument counts implied by the symbol table) */
static CArena *register_arena(long gid, PyObject *grammar,
                              const int *ik, Py_ssize_t len) {
    CArena *a = (CArena *)calloc(1, sizeof(CArena));
    if (!a) { PyErr_NoMemory(); return NULL; }
    Py_ssize_t p = 0;
    int ok = len > 0;
    a->n = ok ? ik[p++] : 0;
    a->root = 0;
    a->flags = (unsigned char *)calloc((size_t)a->n + 1, 1);
    a->row_start = (int *)malloc(((size_t)a->n + 1) * sizeof(int));
    if (!a->flags || !a->row_start) { carena_free(a); PyErr_NoMemory(); return NULL; }
    IVec syms = {0}, argst = {0}, argv = {0};
    for (int i = 0; ok && i < a->n; i++) {
        ok = p + 2 <= len;
        if (!ok) break;
        a->flags[i] = (unsigned char)ik[p++];
        a->row_start[i] = syms.len;
        int nrows = ik[p++];
        for (int r = 0; ok && r < nrows; r++) {
            int sym = p < len ? ik[p++] : -1;
            if (sym < 0 || ensure_syms(sym) < 0) { ok = 0; break; }
            int nargs = g_syms[sym].arity;
            ok = p + nargs <= len && ivec_push(&syms, sym) == 0
                 && ivec_push(&argst, argv.len) == 0;
            for (int k = 0; ok && k < nargs; k++)
                ok = ivec_push(&argv, ik[p++]) == 0;
        }
    }
    if (ok) ok = p == len && ivec_push(&argst, argv.len) == 0;
    if (!ok) {
        ivec_free(&syms); ivec_free(&argst); ivec_free(&argv);
        carena_free(a);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "bad canonical grammar key");
        return NULL;
    }
    a->row_start[a->n] = syms.len;
    a->nalts = syms.len;
    a->alt_sym = syms.data;
    a->arg_start = argst.data;
    a->args = argv.data;
    Py_INCREF(grammar);
    a->grammar = grammar;
    if (imap_put(&g_arena_map, gid, (int64_t)(intptr_t)a) < 0) {
        carena_free(a); PyErr_NoMemory(); return NULL;
    }
    g_compiles++;
    return a;
}

/* the arena of an interned grammar, registered from its `_ckey` on
 * first sight (a grammar born here is registered at birth) */
static CArena *get_arena(PyObject *g) {
    long gid = get_gid(g);
    if (gid == -2) return NULL;
    if (gid < 0) {
        PyErr_SetString(PyExc_RuntimeError,
                        "native kernel called on non-interned grammar");
        return NULL;
    }
    int64_t val;
    if (imap_get(&g_arena_map, gid, &val))
        return (CArena *)(intptr_t)val;
    PyObject *key = PyObject_GetAttr(g, s_ckey);
    if (!key) return NULL;
    if (!PyBytes_Check(key)) {
        Py_DECREF(key);
        PyErr_SetString(PyExc_TypeError, "grammar without a canonical key");
        return NULL;
    }
    CArena *a = register_arena(
        gid, g, (const int *)PyBytes_AS_STRING(key),
        PyBytes_GET_SIZE(key) / (Py_ssize_t)sizeof(int));
    Py_DECREF(key);
    return a;
}

static int arena_is_any(const CArena *a) {
    return (a->flags[a->root] & 1) != 0;
}

static int arena_within_width(const CArena *a, int w) {
    for (int i = 0; i < a->n; i++) {
        int cnt = (a->flags[i] & 1) + ((a->flags[i] >> 1) & 1)
                  + (a->row_start[i + 1] - a->row_start[i]);
        if (cnt > w) return 0;
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* memo tables + counters                                              */

enum {
    OP_LE, OP_UNION, OP_INTERSECT, OP_FUNCTOR, OP_SUBGRAMMAR,
    OP_NORMALIZE, OP_SPLIT, OP_SUBST_LE, OP_VALUE_OF, OP_UNIFY,
    OP_CONSTRAIN, OP_FREEZE, OP_INSTANTIATE, OP_FORK, OP_WIDEN,
    OP_MERGE, OP_COUNT
};

static const char *OP_NAMES[OP_COUNT] = {
    "le", "union", "intersect", "functor", "subgrammar", "normalize",
    "split", "subst_le", "value_of", "unify", "constrain", "freeze",
    "instantiate", "fork", "widen", "merge"
};

static long g_calls[OP_COUNT];
static double g_secs[OP_COUNT];

#define PROF_BEGIN(op) \
    double _t0 = 0.0; g_calls[op]++; if (g_profile) _t0 = now_seconds();
#define PROF_END(op) \
    if (g_profile) g_secs[op] += now_seconds() - _t0;

/* le memo: (gid1 << 31 | gid2) -> 1 false / 2 true */
static IMap memo_le;
/* subgrammar memo: (gid << 28 | nt) -> Grammar* (strong) */
static IMap memo_sub;
/* union memo: PyDict (gid1, gid2, w) -> Grammar */
static PyObject *memo_union;
/* intersect memo: PyDict (gid1, gid2, w) -> Grammar */
static PyObject *memo_intersect;
/* functor memo: PyDict (sym, gids..., w) -> Grammar */
static PyObject *memo_functor;
/* widen memo: PyDict (gid_old, gid_new, w, strict) -> Grammar */
static PyObject *memo_widen;

#define MEMO_CAP 200000

static void imap_clear_strong(IMap *m) {
    for (size_t i = 0; i < m->cap; i++)
        if (m->keys[i] != IMAP_EMPTY)
            Py_DECREF((PyObject *)(intptr_t)m->vals[i]);
    imap_free(m);
}

static void bound_dict(PyObject *d) {
    if (d && PyDict_Size(d) > MEMO_CAP)
        PyDict_Clear(d);
}

/* ------------------------------------------------------------------ */
/* dense normalization                                                 */

/* Working buffer for a grammar under construction / normalization.
 * Rows of one node are contiguous in the alt pool (the product
 * constructions emit a node's full row before moving on). */
typedef struct {
    int n, cap_nodes;
    unsigned char *flags;
    int *row_start, *row_len;   /* per node, into the alt pool */
    IVec asym;                   /* per alt: symbol */
    IVec astart;                 /* per alt: start into argpool */
    IVec alen;                   /* per alt: arg count */
    IVec argpool;
} Dense;

static int dense_reserve(Dense *d, int n) {
    if (n <= d->cap_nodes) return 0;
    int cap = d->cap_nodes ? d->cap_nodes : 64;
    while (cap < n) cap *= 2;
    unsigned char *f = (unsigned char *)realloc(d->flags, (size_t)cap);
    if (!f) { PyErr_NoMemory(); return -1; }
    d->flags = f;
    int *rs = (int *)realloc(d->row_start, (size_t)cap * sizeof(int));
    if (!rs) { PyErr_NoMemory(); return -1; }
    d->row_start = rs;
    int *rl = (int *)realloc(d->row_len, (size_t)cap * sizeof(int));
    if (!rl) { PyErr_NoMemory(); return -1; }
    d->row_len = rl;
    d->cap_nodes = cap;
    return 0;
}

static int dense_add_node(Dense *d) {
    if (dense_reserve(d, d->n + 1) < 0) return -1;
    d->flags[d->n] = 0;
    d->row_start[d->n] = -1;
    d->row_len[d->n] = 0;
    return d->n++;
}

static int dense_begin_row(Dense *d, int node) {
    d->row_start[node] = d->asym.len;
    d->row_len[node] = 0;
    return 0;
}

static int dense_add_alt(Dense *d, int node, int sym,
                         const int *args, int nargs) {
    if (ivec_push(&d->asym, sym) < 0 ||
        ivec_push(&d->astart, d->argpool.len) < 0 ||
        ivec_push(&d->alen, nargs) < 0)
        return -1;
    for (int k = 0; k < nargs; k++)
        if (ivec_push(&d->argpool, args[k]) < 0) return -1;
    d->row_len[node]++;
    return 0;
}

static void dense_free(Dense *d) {
    free(d->flags); free(d->row_start); free(d->row_len);
    ivec_free(&d->asym); ivec_free(&d->astart); ivec_free(&d->alen);
    ivec_free(&d->argpool);
    memset(d, 0, sizeof(*d));
}

/* nonempty least fixpoint, mirroring _python._nonempty_bits */
static int dense_nonempty(const Dense *d, char *ne) {
    int n = d->n;
    int nalts = d->asym.len;
    int *remain = (int *)calloc((size_t)nalts + 1, sizeof(int));
    char *registered = (char *)calloc((size_t)nalts + 1, 1);
    int *alt_node = (int *)malloc(((size_t)nalts + 1) * sizeof(int));
    int *stack = (int *)malloc(((size_t)n + 1) * sizeof(int));
    int sp = 0, rc = -1;
    if (!remain || !registered || !alt_node || !stack) { PyErr_NoMemory(); goto done; }
    for (int i = 0; i < n; i++) {
        if (d->flags[i] & 3) { ne[i] = 1; stack[sp++] = i; continue; }
        int rs = d->row_start[i];
        for (int r = 0; r < d->row_len[i]; r++) {
            int alt = rs + r;
            int nargs = d->alen.data[alt];
            if (nargs == 0) {
                if (!ne[i]) { ne[i] = 1; stack[sp++] = i; }
                break;
            }
            remain[alt] = nargs;
            registered[alt] = 1;
            alt_node[alt] = i;
        }
    }
    /* waiting CSR over arg occurrences of registered alts */
    {
        int *occ = (int *)calloc((size_t)n + 1, sizeof(int));
        if (!occ) { PyErr_NoMemory(); goto done; }
        int total = 0;
        for (int alt = 0; alt < nalts; alt++) {
            if (!registered[alt]) continue;
            int as = d->astart.data[alt];
            for (int k = 0; k < d->alen.data[alt]; k++)
                occ[d->argpool.data[as + k]]++;
            total += d->alen.data[alt];
        }
        int *wptr = (int *)malloc(((size_t)n + 2) * sizeof(int));
        int *wlist = (int *)malloc(((size_t)total + 1) * sizeof(int));
        if (!wptr || !wlist) { free(occ); free(wptr); free(wlist); PyErr_NoMemory(); goto done; }
        wptr[0] = 0;
        for (int i = 0; i < n; i++) wptr[i + 1] = wptr[i] + occ[i];
        int *fill = occ;  /* reuse as cursor */
        for (int i = 0; i < n; i++) fill[i] = wptr[i];
        for (int alt = 0; alt < nalts; alt++) {
            if (!registered[alt]) continue;
            int as = d->astart.data[alt];
            for (int k = 0; k < d->alen.data[alt]; k++) {
                int a = d->argpool.data[as + k];
                wlist[fill[a]++] = alt;
            }
        }
        while (sp) {
            int proved = stack[--sp];
            for (int w = wptr[proved]; w < wptr[proved + 1]; w++) {
                int alt = wlist[w];
                remain[alt]--;
                int node = alt_node[alt];
                if (remain[alt] == 0 && !ne[node]) {
                    ne[node] = 1;
                    stack[sp++] = node;
                }
            }
        }
        free(occ); free(wptr); free(wlist);
    }
    rc = 0;
done:
    free(remain); free(registered); free(alt_node); free(stack);
    return rc;
}

/* Full normalization of a Dense buffer; returns a NEW reference to the
 * canonical interned Grammar.  Mirrors _python.normalize_dense +
 * _renumber_and_intern exactly (the partition is unique, the
 * representative is the minimum original index, BFS order is fkey-
 * sorted), so the canonical key matches the Python tier bit for bit. */
static PyObject *flat_to_grammar(const IVec *flat);

static PyObject *dense_normalize(Dense *d, int root, int w, int prune) {
    PROF_BEGIN(OP_NORMALIZE)
    int n = d->n;
    int nalts = d->asym.len;
    PyObject *result = NULL;
    char *ne = NULL;
    char *kept = NULL;
    int *cls = NULL, *newcls = NULL, *cmap = NULL;
    int *keybuf = NULL, *sig_start = NULL, *sig_len = NULL, *sorted_nodes = NULL;
    int *num = NULL, *order = NULL;
    int64_t *sigpool = NULL;

    ne = (char *)calloc((size_t)n + 1, 1);
    kept = (char *)malloc((size_t)nalts + 1);
    if (!ne || !kept) { PyErr_NoMemory(); goto done; }

    /* 1. nonempty pass */
    if (prune) {
        if (dense_nonempty(d, ne) < 0) goto done;
    } else {
        memset(ne, 1, (size_t)n);
    }

    /* 2+3. prune empty references, absorb, cap or-width */
    for (int i = 0; i < n; i++) {
        int rs = d->row_start[i];
        int nkept = 0;
        for (int r = 0; r < d->row_len[i]; r++) {
            int alt = rs + r;
            int ok = 1;
            int as = d->astart.data[alt];
            for (int k = 0; k < d->alen.data[alt]; k++)
                if (!ne[d->argpool.data[as + k]]) { ok = 0; break; }
            kept[alt] = (char)ok;
            nkept += ok;
        }
        int has_any = d->flags[i] & 1;
        int has_int = (d->flags[i] >> 1) & 1;
        if (has_any && (has_int || nkept)) {
            has_int = 0;
            for (int r = 0; r < d->row_len[i]; r++) kept[rs + r] = 0;
            nkept = 0;
        } else if (has_int) {
            for (int r = 0; r < d->row_len[i]; r++) {
                int alt = rs + r;
                if (kept[alt] && g_syms[d->asym.data[alt]].is_literal) {
                    kept[alt] = 0;
                    nkept--;
                }
            }
        }
        if (w >= 0 && has_any + has_int + nkept > w) {
            has_any = 1; has_int = 0;
            for (int r = 0; r < d->row_len[i]; r++) kept[rs + r] = 0;
        }
        d->flags[i] = (unsigned char)(has_any | (has_int << 1));
    }

    /* 4. partition refinement (global rounds; the coarsest signature-
     * stable partition is unique, so matching the Python split-based
     * worklist is not required — only the partition matters). */
    cls = (int *)calloc((size_t)n + 1, sizeof(int));
    if (!cls) { PyErr_NoMemory(); goto done; }
    if (n > 1) {
        newcls = (int *)malloc(((size_t)n + 1) * sizeof(int));
        sig_start = (int *)malloc(((size_t)n + 1) * sizeof(int));
        sig_len = (int *)malloc(((size_t)n + 1) * sizeof(int));
        sorted_nodes = (int *)malloc(((size_t)n + 1) * sizeof(int));
        /* worst-case signature size: 1 + per alt (1 + nargs) + ANY/INT */
        size_t sigcap = (size_t)n * 3 + (size_t)nalts * 2
                        + (size_t)d->argpool.len + 16;
        sigpool = (int64_t *)malloc(sigcap * sizeof(int64_t));
        keybuf = (int *)malloc(((size_t)nalts + 2) * 2 * sizeof(int));
        if (!newcls || !sig_start || !sig_len || !sorted_nodes || !sigpool
            || !keybuf) { PyErr_NoMemory(); goto done; }
        int ncls = 1;
        for (;;) {
            /* build per-node signatures:
             * [cls[i], then sorted alt keys (code, argcls+1 ...)] */
            size_t sp2 = 0;
            for (int i = 0; i < n; i++) {
                sig_start[i] = (int)sp2;
                sigpool[sp2++] = cls[i];
                /* collect alt key offsets: emit keys into sigpool
                 * sequentially, then insertion-sort the (variable
                 * length) keys via an index array. */
                int rs = d->row_start[i];
                int nkeys = 0;
                int key_off[2];  /* unused: placate compilers */
                (void)key_off;
                /* ANY -> code 0, INT -> 1, sym -> sym + 2; keys are
                 * uniquely parseable, so flat lexicographic compare of
                 * the concatenation equals tuple compare. */
                size_t keys_begin = sp2;
                int koff[256];
                int klen[256];
                int *koffp = koff, *klenp = klen;
                int dynamic = 0;
                int total_keys = (d->flags[i] & 1 ? 1 : 0)
                                 + ((d->flags[i] >> 1) & 1 ? 1 : 0)
                                 + d->row_len[i];
                if (total_keys > 256) {
                    koffp = (int *)malloc((size_t)total_keys * sizeof(int));
                    klenp = (int *)malloc((size_t)total_keys * sizeof(int));
                    if (!koffp || !klenp) { free(koffp); free(klenp); PyErr_NoMemory(); goto done; }
                    dynamic = 1;
                }
                if (d->flags[i] & 1) {
                    koffp[nkeys] = (int)(sp2 - keys_begin);
                    klenp[nkeys++] = 1;
                    sigpool[sp2++] = 0;
                }
                if ((d->flags[i] >> 1) & 1) {
                    koffp[nkeys] = (int)(sp2 - keys_begin);
                    klenp[nkeys++] = 1;
                    sigpool[sp2++] = 1;
                }
                for (int r = 0; r < d->row_len[i]; r++) {
                    int alt = rs + r;
                    if (!kept[alt]) continue;
                    koffp[nkeys] = (int)(sp2 - keys_begin);
                    int as = d->astart.data[alt];
                    int na = d->alen.data[alt];
                    klenp[nkeys++] = 1 + na;
                    sigpool[sp2++] = (int64_t)d->asym.data[alt] + 2;
                    for (int k = 0; k < na; k++)
                        sigpool[sp2++] = cls[d->argpool.data[as + k]] + 1;
                }
                /* insertion sort keys lexicographically */
                for (int a = 1; a < nkeys; a++) {
                    int oa = koffp[a], la = klenp[a];
                    /* copy key a to scratch (end of pool is safe: we
                     * sort in place via rotation instead) */
                    int b = a;
                    while (b > 0) {
                        int ob = koffp[b - 1], lb = klenp[b - 1];
                        int64_t *ka = sigpool + keys_begin + oa;
                        int64_t *kb = sigpool + keys_begin + ob;
                        int m = la < lb ? la : lb;
                        int c = 0;
                        for (int t = 0; t < m; t++) {
                            if (ka[t] != kb[t]) { c = ka[t] < kb[t] ? -1 : 1; break; }
                        }
                        if (c == 0) c = la < lb ? -1 : (la > lb ? 1 : 0);
                        if (c >= 0) break;
                        /* swap order only (offsets move, data stays) */
                        koffp[b] = ob; klenp[b] = lb;
                        koffp[b - 1] = oa; klenp[b - 1] = la;
                        b--;
                    }
                }
                /* rewrite signature as concatenation in sorted order:
                 * compact into a scratch area then copy back */
                {
                    size_t total = sp2 - keys_begin;
                    int64_t *scratch = (int64_t *)malloc(
                        (total + 1) * sizeof(int64_t));
                    if (!scratch) { if (dynamic) { free(koffp); free(klenp); } PyErr_NoMemory(); goto done; }
                    size_t t = 0;
                    for (int a = 0; a < nkeys; a++) {
                        memcpy(scratch + t, sigpool + keys_begin + koffp[a],
                               (size_t)klenp[a] * sizeof(int64_t));
                        t += (size_t)klenp[a];
                    }
                    memcpy(sigpool + keys_begin, scratch,
                           t * sizeof(int64_t));
                    free(scratch);
                }
                if (dynamic) { free(koffp); free(klenp); }
                sig_len[i] = (int)(sp2 - (size_t)sig_start[i]);
                sorted_nodes[i] = i;
            }
            /* sort node indices by signature (insertion sort: n is
             * small for type graphs; stable order not required) */
            for (int a = 1; a < n; a++) {
                int ia = sorted_nodes[a];
                int b = a;
                while (b > 0) {
                    int ib = sorted_nodes[b - 1];
                    int64_t *sa = sigpool + sig_start[ia];
                    int64_t *sb = sigpool + sig_start[ib];
                    int la = sig_len[ia], lb = sig_len[ib];
                    int m = la < lb ? la : lb;
                    int c = 0;
                    for (int t = 0; t < m; t++)
                        if (sa[t] != sb[t]) { c = sa[t] < sb[t] ? -1 : 1; break; }
                    if (c == 0) c = la < lb ? -1 : (la > lb ? 1 : 0);
                    if (c >= 0) break;
                    sorted_nodes[b] = ib;
                    sorted_nodes[b - 1] = ia;
                    b--;
                }
            }
            /* assign group labels in sorted order */
            int count = 0;
            for (int a = 0; a < n; a++) {
                if (a > 0) {
                    int ia = sorted_nodes[a], ib = sorted_nodes[a - 1];
                    int la = sig_len[ia], lb = sig_len[ib];
                    int equal = (la == lb);
                    if (equal) {
                        int64_t *sa = sigpool + sig_start[ia];
                        int64_t *sb = sigpool + sig_start[ib];
                        for (int t = 0; t < la; t++)
                            if (sa[t] != sb[t]) { equal = 0; break; }
                    }
                    if (!equal) count++;
                }
                newcls[sorted_nodes[a]] = count;
            }
            count++;
            if (count == ncls) break;
            ncls = count;
            memcpy(cls, newcls, (size_t)n * sizeof(int));
            if (ncls >= n) break;
        }
    }

    /* representative = minimum original index per class */
    cmap = (int *)malloc(((size_t)n + 1) * sizeof(int));
    num = (int *)malloc(((size_t)n + 1) * sizeof(int));
    order = (int *)malloc(((size_t)n + 1) * sizeof(int));
    if (!cmap || !num || !order) { PyErr_NoMemory(); goto done; }
    {
        int *repof = (int *)malloc(((size_t)n + 1) * sizeof(int));
        if (!repof) { PyErr_NoMemory(); goto done; }
        for (int i = 0; i < n; i++) repof[i] = -1;
        for (int i = 0; i < n; i++)
            if (repof[cls[i]] < 0) repof[cls[i]] = i;
        for (int i = 0; i < n; i++) cmap[i] = repof[cls[i]];
        free(repof);
    }

    /* 5. BFS renumber from cmap[root]; per rep node the merged row is
     * the deduped (sym, cmapped args) entries sorted by fkey then
     * mapped args. */
    {
        for (int i = 0; i < n; i++) num[i] = -1;
        int start = cmap[root];
        num[start] = 0;
        order[0] = start;
        int cnt = 1, qi = 0;
        /* merged rows, rebuilt per visited node into scratch vectors */
        IVec msym = {0}, mstart = {0}, mlen = {0}, margs = {0};
        IVec node_row_start = {0};  /* per visited node: index into msym */
        int fail = 0;
        while (qi < cnt && !fail) {
            int i = order[qi++];
            if (ivec_push(&node_row_start, msym.len) < 0) { fail = 1; break; }
            int rs = d->row_start[i];
            int row_begin = msym.len;
            for (int r = 0; r < d->row_len[i] && !fail; r++) {
                int alt = rs + r;
                if (!kept[alt]) continue;
                int sym = d->asym.data[alt];
                int as = d->astart.data[alt];
                int na = d->alen.data[alt];
                /* mapped args */
                int stackbuf[32];
                int *m = stackbuf;
                if (na > 32) {
                    m = (int *)malloc((size_t)na * sizeof(int));
                    if (!m) { fail = 1; break; }
                }
                for (int k = 0; k < na; k++)
                    m[k] = cmap[d->argpool.data[as + k]];
                /* dedup: linear scan of entries emitted for this node */
                int dup = 0;
                for (int e = row_begin; e < msym.len; e++) {
                    if (msym.data[e] != sym) continue;
                    if (mlen.data[e] != na) continue;
                    int same = 1;
                    int es = mstart.data[e];
                    for (int k = 0; k < na; k++)
                        if (margs.data[es + k] != m[k]) { same = 0; break; }
                    if (same) { dup = 1; break; }
                }
                if (!dup) {
                    if (ivec_push(&msym, sym) < 0 ||
                        ivec_push(&mstart, margs.len) < 0 ||
                        ivec_push(&mlen, na) < 0) fail = 1;
                    for (int k = 0; k < na && !fail; k++)
                        if (ivec_push(&margs, m[k]) < 0) fail = 1;
                }
                if (m != stackbuf) free(m);
            }
            if (fail) break;
            /* sort this node's entries by (fkey, mapped args) */
            for (int a = row_begin + 1; a < msym.len; a++) {
                int b = a;
                while (b > row_begin) {
                    int c = fkey_cmp(msym.data[b - 1], msym.data[b]);
                    if (c == 0) {
                        int la = mlen.data[b - 1];
                        int sa = mstart.data[b - 1], sb = mstart.data[b];
                        for (int k = 0; k < la; k++) {
                            int x = margs.data[sa + k], y = margs.data[sb + k];
                            if (x != y) { c = x < y ? -1 : 1; break; }
                        }
                    }
                    if (c <= 0) break;
                    /* swap entries b-1 and b (args stay; swap headers) */
                    int ts = msym.data[b - 1]; msym.data[b - 1] = msym.data[b]; msym.data[b] = ts;
                    ts = mstart.data[b - 1]; mstart.data[b - 1] = mstart.data[b]; mstart.data[b] = ts;
                    ts = mlen.data[b - 1]; mlen.data[b - 1] = mlen.data[b]; mlen.data[b] = ts;
                    b--;
                }
            }
            /* BFS-number children in sorted entry order */
            for (int e = row_begin; e < msym.len; e++) {
                int es = mstart.data[e];
                for (int k = 0; k < mlen.data[e]; k++) {
                    int child = margs.data[es + k];
                    if (num[child] < 0) {
                        num[child] = cnt;
                        order[cnt++] = child;
                    }
                }
            }
        }
        if (fail) {
            ivec_free(&msym); ivec_free(&mstart); ivec_free(&mlen);
            ivec_free(&margs); ivec_free(&node_row_start);
            PyErr_NoMemory();
            goto done;
        }
        ivec_push(&node_row_start, msym.len);

        /* 6. emit the flat int key:
         * [out_n, per new nt: flags, nrows, (sym, renumbered args)...] */
        IVec flat = {0};
        int out_n = cnt;
        int emit_fail = ivec_push(&flat, out_n) < 0;
        for (int newnt = 0; newnt < out_n && !emit_fail; newnt++) {
            int i = order[newnt];
            emit_fail |= ivec_push(&flat, d->flags[i]) < 0;
            int rb = node_row_start.data[newnt];
            int re = node_row_start.data[newnt + 1];
            emit_fail |= ivec_push(&flat, re - rb) < 0;
            for (int e = rb; e < re && !emit_fail; e++) {
                emit_fail |= ivec_push(&flat, msym.data[e]) < 0;
                int es = mstart.data[e];
                for (int k = 0; k < mlen.data[e] && !emit_fail; k++)
                    emit_fail |= ivec_push(&flat,
                                           num[margs.data[es + k]]) < 0;
            }
        }
        ivec_free(&msym); ivec_free(&mstart); ivec_free(&mlen);
        ivec_free(&margs); ivec_free(&node_row_start);
        if (emit_fail) { ivec_free(&flat); PyErr_NoMemory(); goto done; }

        result = flat_to_grammar(&flat);
        ivec_free(&flat);
    }

done:
    free(ne); free(kept); free(cls); free(newcls); free(cmap);
    free(keybuf); free(sig_start); free(sig_len); free(sorted_nodes);
    free(num); free(order); free(sigpool);
    PROF_END(OP_NORMALIZE)
    return result;
}

/* ------------------------------------------------------------------ */
/* grammar operations                                                  */

typedef struct { int64_t *data; int len, cap; } I64Vec;

static int i64vec_push(I64Vec *v, int64_t x) {
    if (v->len == v->cap) {
        int cap = v->cap ? v->cap * 2 : 64;
        int64_t *data = (int64_t *)realloc(
            v->data, (size_t)cap * sizeof(int64_t));
        if (!data) return -1;
        v->data = data; v->cap = cap;
    }
    v->data[v->len++] = x;
    return 0;
}

static void i64vec_free(I64Vec *v) { free(v->data); v->data = NULL; v->len = v->cap = 0; }

static int row_find(const CArena *a, int node, int sym) {
    for (int r = a->row_start[node]; r < a->row_start[node + 1]; r++)
        if (a->alt_sym[r] == sym) return r;
    return -1;
}

static int grammar_is_bottom(const CArena *a) {
    return a->flags[a->root] == 0
        && a->row_start[a->root + 1] == a->row_start[a->root];
}

/* shared tail of every construction: the interned grammar of a
 * canonical key.  A hit in the intern table costs one probe; a miss
 * mints the handle through Python and registers its arena here. */
static PyObject *flat_to_grammar(const IVec *flat) {
    PyObject *key = PyBytes_FromStringAndSize(
        (const char *)flat->data,
        (Py_ssize_t)flat->len * (Py_ssize_t)sizeof(int));
    if (!key) return NULL;
    PyObject *grammar = table_probe(obj_grammar_table, key);
    if (grammar || PyErr_Occurred()) {
        Py_DECREF(key);
        return grammar;
    }
    CALLBACK(grammar, PyObject_CallOneArg(cb_grammar_of_key, key));
    Py_DECREF(key);
    if (!grammar) return NULL;
    long gid = get_gid(grammar);
    int64_t val;
    if (gid < 0 || (!imap_get(&g_arena_map, gid, &val)
                    && !register_arena(gid, grammar, flat->data,
                                       flat->len))) {
        if (gid == -1)
            PyErr_SetString(PyExc_RuntimeError, "handle without a gid");
        Py_DECREF(grammar);
        return NULL;
    }
    return grammar;
}

/* the interned singleton grammar of a nullary symbol (an atom or an
 * integer literal): its canonical key is [1, 0, 1, sym] */
static PyObject *literal_grammar(int sym) {
    int buf[4] = {1, 0, 1, sym};
    IVec flat = {buf, 4, 4};
    return flat_to_grammar(&flat);
}

/* normalize(g, w) for an interned grammar (the Python fast path plus
 * the dense pipeline when the width cap actually bites) */
static PyObject *norm_interned(PyObject *g, int w) {
    if (w < 0) { Py_INCREF(g); return g; }
    CArena *a = get_arena(g);
    if (!a) return NULL;
    if (arena_within_width(a, w)) { Py_INCREF(g); return g; }
    Dense d; memset(&d, 0, sizeof d);
    PyObject *res = NULL;
    if (dense_reserve(&d, a->n) < 0) { dense_free(&d); return NULL; }
    for (int i = 0; i < a->n; i++) {
        int node = dense_add_node(&d);
        d.flags[node] = a->flags[i];
        dense_begin_row(&d, node);
        for (int r = a->row_start[i]; r < a->row_start[i + 1]; r++) {
            if (dense_add_alt(&d, node, a->alt_sym[r],
                              a->args + a->arg_start[r],
                              a->arg_start[r + 1] - a->arg_start[r]) < 0) {
                PyErr_NoMemory(); dense_free(&d); return NULL;
            }
        }
    }
    res = dense_normalize(&d, a->root, w, 1);
    dense_free(&d);
    return res;
}

/* -- inclusion: pair worklist over the synchronized product -- */

static int le_walk_from(const CArena *a1, int start1,
                        const CArena *a2, int start2) {
    int64_t n2 = a2->n;
    IMap seen; memset(&seen, 0, sizeof seen);
    I64Vec stack = {0};
    int res = 1;
    int64_t key0 = (int64_t)start1 * n2 + start2;
    if (imap_put(&seen, key0, 1) < 0 || i64vec_push(&stack, key0) < 0) {
        res = -1; goto done;
    }
    while (stack.len) {
        int64_t key = stack.data[--stack.len];
        int i = (int)(key / n2), j = (int)(key % n2);
        if (a2->flags[j] & 1) continue;          /* ANY right covers */
        if (a1->flags[i] & 1) { res = 0; goto done; }
        int has_int = (a2->flags[j] >> 1) & 1;
        if (((a1->flags[i] >> 1) & 1) && !has_int) { res = 0; goto done; }
        for (int r = a1->row_start[i]; r < a1->row_start[i + 1]; r++) {
            int sym = a1->alt_sym[r];
            if (has_int && g_syms[sym].is_literal) continue;
            int other = row_find(a2, j, sym);
            if (other < 0) { res = 0; goto done; }
            int as1 = a1->arg_start[r], as2 = a2->arg_start[other];
            int na = a1->arg_start[r + 1] - as1;
            for (int k = 0; k < na; k++) {
                int64_t pk = (int64_t)a1->args[as1 + k] * n2
                             + a2->args[as2 + k];
                int64_t dummy;
                if (!imap_get(&seen, pk, &dummy)) {
                    if (imap_put(&seen, pk, 1) < 0 ||
                        i64vec_push(&stack, pk) < 0) { res = -1; goto done; }
                }
            }
        }
    }
done:
    imap_free(&seen);
    i64vec_free(&stack);
    if (res < 0) PyErr_NoMemory();
    return res;
}

static int le_walk(const CArena *a1, const CArena *a2) {
    return le_walk_from(a1, a1->root, a2, a2->root);
}

/* full g_le chain (identity / memo / bottoms / walk), mirroring
 * repro.typegraph.ops.g_le; returns -1 on error */
static int c_g_le(PyObject *g1, PyObject *g2) {
    if (g1 == g2) return 1;
    PROF_BEGIN(OP_LE)
    int res = -1;
    CArena *a1 = get_arena(g1);
    CArena *a2 = a1 ? get_arena(g2) : NULL;
    if (!a2) goto done;
    long gid1 = get_gid(g1), gid2 = get_gid(g2);
    if (gid1 == -2 || gid2 == -2) goto done;
    int64_t key = -1;
    if (gid1 < (1L << 31) && gid2 < (1L << 31)) {
        key = ((int64_t)gid1 << 31) | gid2;
        int64_t v;
        if (imap_get(&memo_le, key, &v)) { res = (int)v; goto done; }
    }
    if (grammar_is_bottom(a1)) res = 1;
    else if (grammar_is_bottom(a2)) res = 0;
    else res = le_walk(a1, a2);
    if (res >= 0 && key >= 0) {
        if (memo_le.count > MEMO_CAP) imap_free(&memo_le);
        imap_put(&memo_le, key, res);
    }
done:
    PROF_END(OP_LE)
    return res;
}

/* -- product constructions (union / intersect / functor) -- */

typedef struct {
    IMap ids;
    I64Vec work;
    Dense d;
    int err;
} Prod;

static int prod_nid(Prod *p, int64_t key) {
    int64_t slot;
    if (imap_get(&p->ids, key, &slot)) return (int)slot;
    int node = dense_add_node(&p->d);
    if (node < 0 || imap_put(&p->ids, key, node) < 0 ||
        i64vec_push(&p->work, key) < 0) {
        p->err = 1;
        return 0;
    }
    return node;
}

/* emit one alternative whose args map through `nid(make_key(c))` */
static int prod_emit_alt(Prod *p, int slot, int sym,
                         const int *args, int na,
                         const int64_t *keys) {
    int stackbuf[32];
    int *m = stackbuf;
    if (na > 32) {
        m = (int *)malloc((size_t)na * sizeof(int));
        if (!m) { p->err = 1; return -1; }
    }
    for (int k = 0; k < na; k++)
        m[k] = prod_nid(p, keys[k]);
    int rc = p->err ? -1 : dense_add_alt(&p->d, slot, sym, m, na);
    if (m != stackbuf) free(m);
    if (rc < 0) p->err = 1;
    (void)args;
    return rc;
}

/* embed one node of `a` with key offset `key_base` */
static void prod_embed_row(Prod *p, int slot, const CArena *a, int node,
                           int64_t key_base) {
    p->d.flags[slot] = a->flags[node];
    dense_begin_row(&p->d, slot);
    for (int r = a->row_start[node];
         !p->err && r < a->row_start[node + 1]; r++) {
        int as = a->arg_start[r];
        int na = a->arg_start[r + 1] - as;
        int64_t keybuf[32];
        int64_t *keys = keybuf;
        if (na > 32) {
            keys = (int64_t *)malloc((size_t)na * sizeof(int64_t));
            if (!keys) { p->err = 1; return; }
        }
        for (int k = 0; k < na; k++)
            keys[k] = key_base + a->args[as + k];
        prod_emit_alt(p, slot, a->alt_sym[r], NULL, na, keys);
        if (keys != keybuf) free(keys);
    }
}

static void prod_free(Prod *p) {
    imap_free(&p->ids);
    i64vec_free(&p->work);
    dense_free(&p->d);
}

/* bare union product, mirroring _python.arena_union */
static PyObject *union_product(PyObject *g1, PyObject *g2, int w) {
    CArena *a1 = get_arena(g1);
    CArena *a2 = a1 ? get_arena(g2) : NULL;
    if (!a2) return NULL;
    int64_t n2 = a2->n;
    int64_t base = (int64_t)a1->n * n2;
    int64_t base_r = base + a1->n;
    Prod p; memset(&p, 0, sizeof p);
    int root = prod_nid(&p, (int64_t)a1->root * n2 + a2->root);
    while (p.work.len && !p.err) {
        int64_t key = p.work.data[--p.work.len];
        int64_t sv;
        imap_get(&p.ids, key, &sv);
        int slot = (int)sv;
        if (key >= base_r) {
            prod_embed_row(&p, slot, a2, (int)(key - base_r), base_r);
            continue;
        }
        if (key >= base) {
            prod_embed_row(&p, slot, a1, (int)(key - base), base);
            continue;
        }
        int i = (int)(key / n2), j = (int)(key % n2);
        if ((a1->flags[i] & 1) || (a2->flags[j] & 1)) {
            p.d.flags[slot] = 1;
            dense_begin_row(&p.d, slot);
            continue;
        }
        int has_int = ((a1->flags[i] | a2->flags[j]) >> 1) & 1;
        p.d.flags[slot] = (unsigned char)(has_int << 1);
        dense_begin_row(&p.d, slot);
        for (int r = a1->row_start[i];
             !p.err && r < a1->row_start[i + 1]; r++) {
            int sym = a1->alt_sym[r];
            if (has_int && g_syms[sym].is_literal) continue;
            int as1 = a1->arg_start[r];
            int na = a1->arg_start[r + 1] - as1;
            int other = row_find(a2, j, sym);
            int64_t keybuf[32];
            int64_t *keys = keybuf;
            if (na > 32) {
                keys = (int64_t *)malloc((size_t)na * sizeof(int64_t));
                if (!keys) { p.err = 1; break; }
            }
            if (other >= 0) {
                int as2 = a2->arg_start[other];
                for (int k = 0; k < na; k++)
                    keys[k] = (int64_t)a1->args[as1 + k] * n2
                              + a2->args[as2 + k];
            } else {
                for (int k = 0; k < na; k++)
                    keys[k] = base + a1->args[as1 + k];
            }
            prod_emit_alt(&p, slot, sym, NULL, na, keys);
            if (keys != keybuf) free(keys);
        }
        for (int r = a2->row_start[j];
             !p.err && r < a2->row_start[j + 1]; r++) {
            int sym = a2->alt_sym[r];
            if (row_find(a1, i, sym) >= 0) continue;
            if (has_int && g_syms[sym].is_literal) continue;
            int as2 = a2->arg_start[r];
            int na = a2->arg_start[r + 1] - as2;
            int64_t keybuf[32];
            int64_t *keys = keybuf;
            if (na > 32) {
                keys = (int64_t *)malloc((size_t)na * sizeof(int64_t));
                if (!keys) { p.err = 1; break; }
            }
            for (int k = 0; k < na; k++)
                keys[k] = base_r + a2->args[as2 + k];
            prod_emit_alt(&p, slot, sym, NULL, na, keys);
            if (keys != keybuf) free(keys);
        }
    }
    PyObject *res = NULL;
    if (!p.err)
        res = dense_normalize(&p.d, root, w, 0);
    else if (!PyErr_Occurred())
        PyErr_NoMemory();
    prod_free(&p);
    return res;
}

/* bare intersection product, mirroring _python.arena_intersect */
static PyObject *intersect_product(PyObject *g1, PyObject *g2, int w) {
    CArena *a1 = get_arena(g1);
    CArena *a2 = a1 ? get_arena(g2) : NULL;
    if (!a2) return NULL;
    int64_t n2 = a2->n;
    int64_t base = (int64_t)a1->n * n2;
    int64_t base_r = base + a1->n;
    Prod p; memset(&p, 0, sizeof p);
    int root = prod_nid(&p, (int64_t)a1->root * n2 + a2->root);
    while (p.work.len && !p.err) {
        int64_t key = p.work.data[--p.work.len];
        int64_t sv;
        imap_get(&p.ids, key, &sv);
        int slot = (int)sv;
        if (key >= base_r) {
            prod_embed_row(&p, slot, a2, (int)(key - base_r), base_r);
            continue;
        }
        if (key >= base) {
            prod_embed_row(&p, slot, a1, (int)(key - base), base);
            continue;
        }
        int i = (int)(key / n2), j = (int)(key % n2);
        if (a1->flags[i] & 1) {            /* Any ∩ x = x */
            prod_embed_row(&p, slot, a2, j, base_r);
            continue;
        }
        if (a2->flags[j] & 1) {
            prod_embed_row(&p, slot, a1, i, base);
            continue;
        }
        int int1 = (a1->flags[i] >> 1) & 1;
        int int2 = (a2->flags[j] >> 1) & 1;
        p.d.flags[slot] = (unsigned char)((int1 && int2) << 1);
        dense_begin_row(&p.d, slot);
        for (int r = a1->row_start[i];
             !p.err && r < a1->row_start[i + 1]; r++) {
            int sym = a1->alt_sym[r];
            int other = row_find(a2, j, sym);
            if (other < 0) continue;
            int as1 = a1->arg_start[r], as2 = a2->arg_start[other];
            int na = a1->arg_start[r + 1] - as1;
            int64_t keybuf[32];
            int64_t *keys = keybuf;
            if (na > 32) {
                keys = (int64_t *)malloc((size_t)na * sizeof(int64_t));
                if (!keys) { p.err = 1; break; }
            }
            for (int k = 0; k < na; k++)
                keys[k] = (int64_t)a1->args[as1 + k] * n2
                          + a2->args[as2 + k];
            prod_emit_alt(&p, slot, sym, NULL, na, keys);
            if (keys != keybuf) free(keys);
        }
        if (int2 && !int1) {   /* literals of g1 ∩ INT = the literals */
            for (int r = a1->row_start[i];
                 !p.err && r < a1->row_start[i + 1]; r++) {
                int sym = a1->alt_sym[r];
                if (g_syms[sym].is_literal && row_find(a2, j, sym) < 0)
                    prod_emit_alt(&p, slot, sym, NULL, 0, NULL);
            }
        }
        if (int1 && !int2) {
            for (int r = a2->row_start[j];
                 !p.err && r < a2->row_start[j + 1]; r++) {
                int sym = a2->alt_sym[r];
                if (g_syms[sym].is_literal && row_find(a1, i, sym) < 0)
                    prod_emit_alt(&p, slot, sym, NULL, 0, NULL);
            }
        }
    }
    PyObject *res = NULL;
    if (!p.err)
        res = dense_normalize(&p.d, root, w, 1);
    else if (!PyErr_Occurred())
        PyErr_NoMemory();
    prod_free(&p);
    return res;
}

/* full g_union chain, mirroring ops.g_union + _g_union_impl */
static PyObject *c_g_union(PyObject *g1, PyObject *g2, int w) {
    PROF_BEGIN(OP_UNION)
    PyObject *res = NULL, *key = NULL;
    CArena *a1 = get_arena(g1);
    CArena *a2 = a1 ? get_arena(g2) : NULL;
    if (!a2) goto done;
    if (grammar_is_bottom(a1)) { res = norm_interned(g2, w); goto done; }
    if (grammar_is_bottom(a2)) { res = norm_interned(g1, w); goto done; }
    if (g1 == g2) { res = norm_interned(g1, w); goto done; }
    {
        long gid1 = get_gid(g1), gid2 = get_gid(g2);
        if (gid1 == -2 || gid2 == -2) goto done;
        key = Py_BuildValue("(lli)", gid1, gid2, w);
        if (!key) goto done;
        PyObject *hit = PyDict_GetItem(memo_union, key);
        if (hit) { Py_INCREF(hit); res = hit; goto done; }
    }
    {
        int c = c_g_le(g1, g2);
        if (c < 0) goto done;
        if (c) res = norm_interned(g2, w);
        else {
            c = c_g_le(g2, g1);
            if (c < 0) goto done;
            res = c ? norm_interned(g1, w) : union_product(g1, g2, w);
        }
    }
    if (res && key) {
        bound_dict(memo_union);
        PyDict_SetItem(memo_union, key, res);
    }
done:
    Py_XDECREF(key);
    PROF_END(OP_UNION)
    return res;
}

/* full g_intersect chain, mirroring ops.g_intersect */
static PyObject *c_g_intersect(PyObject *g1, PyObject *g2, int w) {
    PROF_BEGIN(OP_INTERSECT)
    PyObject *res = NULL, *key = NULL;
    CArena *a1 = get_arena(g1);
    CArena *a2 = a1 ? get_arena(g2) : NULL;
    if (!a2) goto done;
    if (grammar_is_bottom(a1) || grammar_is_bottom(a2)) {
        Py_INCREF(obj_bottom);
        res = obj_bottom;
        goto done;
    }
    if (arena_is_any(a1)) { res = norm_interned(g2, w); goto done; }
    if (arena_is_any(a2)) { res = norm_interned(g1, w); goto done; }
    if (g1 == g2) { res = norm_interned(g1, w); goto done; }
    {
        long gid1 = get_gid(g1), gid2 = get_gid(g2);
        if (gid1 == -2 || gid2 == -2) goto done;
        key = Py_BuildValue("(lli)", gid1, gid2, w);
        if (!key) goto done;
        PyObject *hit = PyDict_GetItem(memo_intersect, key);
        if (hit) { Py_INCREF(hit); res = hit; goto done; }
    }
    {
        int c = c_g_le(g1, g2);
        if (c < 0) goto done;
        if (c) res = norm_interned(g1, w);
        else {
            c = c_g_le(g2, g1);
            if (c < 0) goto done;
            res = c ? norm_interned(g2, w) : intersect_product(g1, g2, w);
        }
    }
    if (res && key) {
        bound_dict(memo_intersect);
        PyDict_SetItem(memo_intersect, key, res);
    }
done:
    Py_XDECREF(key);
    PROF_END(OP_INTERSECT)
    return res;
}

/* functor construction, mirroring _python.arena_functor (the
 * g_functor opcache probe is replaced by the C-side functor memo);
 * `sym` is the functor's symbol, of arity len(children) */
static PyObject *c_g_functor(int sym, PyObject *children, int w) {
    PROF_BEGIN(OP_FUNCTOR)
    PyObject *res = NULL, *key = NULL;
    Py_ssize_t nch = PyTuple_GET_SIZE(children);
    key = PyTuple_New(nch + 2);
    if (!key) goto done;
    {
        PyObject *o = PyLong_FromLong(sym);
        if (!o) goto done;
        PyTuple_SET_ITEM(key, 0, o);
    }
    for (Py_ssize_t c = 0; c < nch; c++) {
        long gid = get_gid(PyTuple_GET_ITEM(children, c));
        if (gid == -2) goto done;
        PyObject *o = PyLong_FromLong(gid);
        if (!o) goto done;
        PyTuple_SET_ITEM(key, c + 1, o);
    }
    {
        PyObject *o = PyLong_FromLong(w);
        if (!o) goto done;
        PyTuple_SET_ITEM(key, nch + 1, o);
    }
    {
        PyObject *hit = PyDict_GetItem(memo_functor, key);
        if (hit) { Py_INCREF(hit); res = hit; goto done; }
    }
    {
        Dense d; memset(&d, 0, sizeof d);
        int err = 0, prune = 0;
        int root = dense_add_node(&d);
        int rootbuf[32];
        int *child_roots = rootbuf;
        if (nch > 32) {
            child_roots = (int *)malloc((size_t)nch * sizeof(int));
            if (!child_roots) { dense_free(&d); PyErr_NoMemory(); goto done; }
        }
        int offset = 1;
        for (Py_ssize_t c = 0; c < nch && !err; c++) {
            CArena *a = get_arena(PyTuple_GET_ITEM(children, c));
            if (!a) { err = 2; break; }
            child_roots[c] = offset + a->root;
            if (grammar_is_bottom(a)) prune = 1;
            for (int i = 0; i < a->n && !err; i++) {
                int node = dense_add_node(&d);
                if (node < 0) { err = 1; break; }
                d.flags[node] = a->flags[i];
                dense_begin_row(&d, node);
                for (int r = a->row_start[i];
                     !err && r < a->row_start[i + 1]; r++) {
                    int as = a->arg_start[r];
                    int na = a->arg_start[r + 1] - as;
                    int abuf[32];
                    int *m = abuf;
                    if (na > 32) {
                        m = (int *)malloc((size_t)na * sizeof(int));
                        if (!m) { err = 1; break; }
                    }
                    for (int k = 0; k < na; k++)
                        m[k] = offset + a->args[as + k];
                    if (dense_add_alt(&d, node, a->alt_sym[r], m, na) < 0)
                        err = 1;
                    if (m != abuf) free(m);
                }
            }
            offset += a->n;
        }
        if (!err) {
            dense_begin_row(&d, root);
            if (dense_add_alt(&d, root, (int)sym, child_roots,
                              (int)nch) < 0)
                err = 1;
        }
        if (child_roots != rootbuf) free(child_roots);
        if (!err)
            res = dense_normalize(&d, 0, w, prune);
        else if (err == 1)
            PyErr_NoMemory();
        dense_free(&d);
    }
    if (res && key) {
        bound_dict(memo_functor);
        PyDict_SetItem(memo_functor, key, res);
    }
done:
    Py_XDECREF(key);
    PROF_END(OP_FUNCTOR)
    return res;
}

/* subgrammar at dense index, mirroring _python.arena_subgrammar:
 * BFS renumbering over the (pre-sorted, duplicate-free) arena rows of
 * a normalized grammar is already the canonical numbering, so the
 * emission below is the result's canonical flat int key. */
static PyObject *c_subgrammar(PyObject *g, int start) {
    CArena *a = get_arena(g);
    if (!a) return NULL;
    if (start == a->root) { Py_INCREF(g); return g; }
    PROF_BEGIN(OP_SUBGRAMMAR)
    PyObject *res = NULL;
    long gid = get_gid(g);
    if (gid == -2) { PROF_END(OP_SUBGRAMMAR) return NULL; }
    int64_t mkey = (gid < (1L << 34) && start < (1 << 28))
                   ? ((int64_t)gid << 28) | start : -1;
    if (mkey >= 0) {
        int64_t v;
        if (imap_get(&memo_sub, mkey, &v)) {
            res = (PyObject *)(intptr_t)v;
            Py_INCREF(res);
            PROF_END(OP_SUBGRAMMAR)
            return res;
        }
    }
    int n = a->n;
    int *num = (int *)malloc((size_t)n * sizeof(int));
    int *order = (int *)malloc((size_t)n * sizeof(int));
    IVec flat = {0};
    if (!num || !order) { free(num); free(order); PyErr_NoMemory(); PROF_END(OP_SUBGRAMMAR) return NULL; }
    for (int i = 0; i < n; i++) num[i] = -1;
    num[start] = 0;
    order[0] = start;
    int cnt = 1, qi = 0;
    while (qi < cnt) {
        int i = order[qi++];
        for (int r = a->row_start[i]; r < a->row_start[i + 1]; r++) {
            int as = a->arg_start[r];
            for (int k = a->arg_start[r + 1] - as; k > 0; k--) {
                int child = a->args[as + (a->arg_start[r + 1] - as - k)];
                if (num[child] < 0) {
                    num[child] = cnt;
                    order[cnt++] = child;
                }
            }
        }
    }
    int fail = ivec_push(&flat, cnt) < 0;
    for (int q = 0; q < cnt && !fail; q++) {
        int i = order[q];
        fail |= ivec_push(&flat, a->flags[i]) < 0;
        fail |= ivec_push(&flat, a->row_start[i + 1] - a->row_start[i]) < 0;
        for (int r = a->row_start[i];
             !fail && r < a->row_start[i + 1]; r++) {
            fail |= ivec_push(&flat, a->alt_sym[r]) < 0;
            int as = a->arg_start[r];
            for (int k = 0; !fail && k < a->arg_start[r + 1] - as; k++)
                fail |= ivec_push(&flat, num[a->args[as + k]]) < 0;
        }
    }
    if (!fail)
        res = flat_to_grammar(&flat);
    else
        PyErr_NoMemory();
    free(num); free(order); ivec_free(&flat);
    if (res && mkey >= 0) {
        if (memo_sub.count > MEMO_CAP) imap_clear_strong(&memo_sub);
        Py_INCREF(res);
        if (imap_put(&memo_sub, mkey, (int64_t)(intptr_t)res) < 0)
            Py_DECREF(res);
    }
    PROF_END(OP_SUBGRAMMAR)
    return res;
}

/* g_split, mirroring ops.g_split on the arena view (determinism makes
 * the matching alternative unique; functor keys and symbols are one to
 * one) */
static PyObject *c_g_split(PyObject *g, int sym) {
    CArena *a = get_arena(g);
    if (!a) return NULL;
    PROF_BEGIN(OP_SPLIT)
    PyObject *res = NULL;
    int root = a->root;
    int arity = g_syms[sym].arity;
    if (a->flags[root] & 1) {
        res = PyTuple_New(arity);
        if (res)
            for (int k = 0; k < arity; k++) {
                Py_INCREF(obj_any);
                PyTuple_SET_ITEM(res, k, obj_any);
            }
        goto done;
    }
    if (g_syms[sym].is_literal && (a->flags[root] & 2)) {
        res = PyTuple_New(0);
        goto done;
    }
    for (int r = a->row_start[root]; r < a->row_start[root + 1]; r++) {
        if (a->alt_sym[r] != sym) continue;
        res = PyTuple_New(arity);
        if (!res) goto done;
        int as = a->arg_start[r];
        for (int k = 0; k < arity; k++) {
            PyObject *sub = c_subgrammar(g, a->args[as + k]);
            if (!sub) { Py_DECREF(res); res = NULL; goto done; }
            PyTuple_SET_ITEM(res, k, sub);
        }
        goto done;
    }
    Py_INCREF(Py_None);
    res = Py_None;
done:
    PROF_END(OP_SPLIT)
    return res;
}

/* ------------------------------------------------------------------ */
/* widening (repro.typegraph.widenloop.widen): the tree +
 * back-edge view, clash detection and both transformation rules,
 * mirroring the Python reference step for step.  The grammar produced
 * by every step goes through the same dense_normalize pipeline, so
 * each iterate is the canonical interned object the Python tier would
 * compute.  The type-database extension stays in Python (the
 * dispatcher only routes here when no database is configured). */

#define W_TREEIFY_LIMIT 250000
#define W_MAX_STEPS 400

typedef struct WVert {
    unsigned char kind;       /* 0=or, 1=functor, 2=any, 3=int */
    char pf_valid;
    int sym;                  /* functor vertices: dense sym id */
    int depth;
    int idx;                  /* creation index within its graph */
    int nt;                   /* or-vertices: local nonterminal */
    struct WVert *parent;
    int nsucc, scap;
    struct WVert **succ;
    int *pf; int pf_len;      /* sorted sym ids; the INT leaf is -2 */
} WVert;

typedef struct {
    WVert **all; int count, cap;
    WVert *root;
} WGraph;

static WVert *wvert_new(WGraph *g, int kind, int sym, WVert *parent) {
    WVert *v = (WVert *)calloc(1, sizeof(WVert));
    if (!v) { PyErr_NoMemory(); return NULL; }
    v->kind = (unsigned char)kind;
    v->sym = sym;
    v->nt = -1;
    v->parent = parent;
    v->depth = parent ? parent->depth + 1 : 0;
    v->idx = g->count;
    if (g->count == g->cap) {
        int cap = g->cap ? g->cap * 2 : 256;
        WVert **all = (WVert **)realloc(g->all,
                                        (size_t)cap * sizeof(WVert *));
        if (!all) { free(v); PyErr_NoMemory(); return NULL; }
        g->all = all; g->cap = cap;
    }
    g->all[g->count++] = v;
    return v;
}

static int wvert_addsucc(WVert *v, WVert *child) {
    if (v->nsucc == v->scap) {
        int cap = v->scap ? v->scap * 2 : 4;
        WVert **succ = (WVert **)realloc(v->succ,
                                         (size_t)cap * sizeof(WVert *));
        if (!succ) { PyErr_NoMemory(); return -1; }
        v->succ = succ; v->scap = cap;
    }
    v->succ[v->nsucc++] = child;
    return 0;
}

static void wgraph_free(WGraph *g) {
    for (int i = 0; i < g->count; i++) {
        free(g->all[i]->succ);
        free(g->all[i]->pf);
        free(g->all[i]);
    }
    free(g->all);
    memset(g, 0, sizeof(*g));
}

/* unfold an arena into the tree + back-edge view (graph.treeify):
 * 0 ok, 1 vertex limit hit, -1 error */
typedef struct { int nt; WVert *parent; char exit; } WTask;

static int w_treeify(const CArena *a, WGraph *g) {
    IMap path; memset(&path, 0, sizeof path);
    WTask *stack = NULL;
    int sp = 0, scap = 0, rc = -1;
    #define WPUSH(NT, PARENT, EXIT) do { \
        if (sp == scap) { \
            int cap_ = scap ? scap * 2 : 256; \
            WTask *st_ = (WTask *)realloc(stack, \
                                          (size_t)cap_ * sizeof(WTask)); \
            if (!st_) { PyErr_NoMemory(); goto done; } \
            stack = st_; scap = cap_; \
        } \
        stack[sp].nt = (NT); stack[sp].parent = (PARENT); \
        stack[sp].exit = (EXIT); sp++; \
    } while (0)
    WPUSH(a->root, NULL, 0);
    while (sp) {
        WTask t = stack[--sp];
        if (t.exit) {
            imap_put(&path, t.nt, 0);
            continue;
        }
        int64_t existing = 0;
        if (imap_get(&path, t.nt, &existing) && existing) {
            /* back edge to the or-vertex of `nt` on the current path */
            if (wvert_addsucc(t.parent, (WVert *)(intptr_t)existing) < 0)
                goto done;
            continue;
        }
        if (g->count >= W_TREEIFY_LIMIT) { rc = 1; goto done; }
        WVert *v = wvert_new(g, 0, -1, t.parent);
        if (!v) goto done;
        if (imap_put(&path, t.nt, (int64_t)(intptr_t)v) < 0) {
            PyErr_NoMemory(); goto done;
        }
        if (t.parent) {
            if (wvert_addsucc(t.parent, v) < 0) goto done;
        } else {
            g->root = v;
        }
        WPUSH(t.nt, NULL, 1);
        if (a->flags[t.nt] & 1) {
            WVert *leaf = wvert_new(g, 2, -1, v);
            if (!leaf || wvert_addsucc(v, leaf) < 0) goto done;
        }
        if (a->flags[t.nt] & 2) {
            WVert *leaf = wvert_new(g, 3, -1, v);
            if (!leaf || wvert_addsucc(v, leaf) < 0) goto done;
        }
        int r0 = a->row_start[t.nt], r1 = a->row_start[t.nt + 1];
        for (int r = r0; r < r1; r++) {
            WVert *child = wvert_new(g, 1, a->alt_sym[r], v);
            if (!child || wvert_addsucc(v, child) < 0) goto done;
        }
        /* defer argument subtrees in reverse so the stack pops them in
         * canonical order (functors first-to-last, args left-to-right) */
        for (int r = r1 - 1; r >= r0; r--) {
            WVert *child = v->succ[v->nsucc - (r1 - r)];
            for (int k = a->arg_start[r + 1] - 1; k >= a->arg_start[r]; k--)
                WPUSH(a->args[k], child, 0);
        }
    }
    rc = 0;
done:
    #undef WPUSH
    imap_free(&path);
    free(stack);
    return rc;
}

/* principal-functor set (Vertex.pf): sorted sym ids, INT leaf = -2 */
static int w_pf(WVert *v) {
    if (v->pf_valid) return 0;
    free(v->pf);
    v->pf = (int *)malloc(((size_t)v->nsucc + 1) * sizeof(int));
    if (!v->pf) { PyErr_NoMemory(); return -1; }
    int n = 0;
    if (v->kind == 0) {
        for (int k = 0; k < v->nsucc; k++) {
            WVert *s = v->succ[k];
            if (s->kind == 1) v->pf[n++] = s->sym;
            else if (s->kind == 3) v->pf[n++] = -2;
        }
    } else if (v->kind == 1) {
        v->pf[n++] = v->sym;
    } else if (v->kind == 3) {
        v->pf[n++] = -2;
    }
    for (int i = 1; i < n; i++) {          /* tiny sets: insertion sort */
        int x = v->pf[i], j = i;
        while (j > 0 && v->pf[j - 1] > x) { v->pf[j] = v->pf[j - 1]; j--; }
        v->pf[j] = x;
    }
    int uniq = n ? 1 : 0;                  /* set semantics: dedup */
    for (int i = 1; i < n; i++)
        if (v->pf[i] != v->pf[uniq - 1]) v->pf[uniq++] = v->pf[i];
    v->pf_len = uniq;
    v->pf_valid = 1;
    return 0;
}

static int w_pf_eq(const WVert *a, const WVert *b) {
    return a->pf_len == b->pf_len &&
           memcmp(a->pf, b->pf, (size_t)a->pf_len * sizeof(int)) == 0;
}

static int w_pf_subset(const WVert *a, const WVert *b) {
    int j = 0;
    for (int i = 0; i < a->pf_len; i++) {
        while (j < b->pf_len && b->pf[j] < a->pf[i]) j++;
        if (j == b->pf_len || b->pf[j] != a->pf[i]) return 0;
    }
    return 1;
}

/* successor alignment order: sorted by (kind, name, len(successors))
 * with Python's string kinds "any" < "functor" < "int" */
static int w_align_cmp(const WVert *x, const WVert *y) {
    static const int rank[4] = {3, 1, 0, 2};   /* or,functor,any,int */
    if (rank[x->kind] != rank[y->kind])
        return rank[x->kind] < rank[y->kind] ? -1 : 1;
    if (x->kind == 1) {
        const SymInfo *sx = &g_syms[x->sym], *sy = &g_syms[y->sym];
        Py_ssize_t n = sx->name_len < sy->name_len ? sx->name_len
                                                   : sy->name_len;
        int c = memcmp(sx->name, sy->name, (size_t)n);
        if (c) return c;
        if (sx->name_len != sy->name_len)
            return sx->name_len < sy->name_len ? -1 : 1;
    }
    if (x->nsucc != y->nsucc) return x->nsucc < y->nsucc ? -1 : 1;
    return 0;
}

/* stable insertion sort of a successor list into `out` */
static void w_align(WVert *v, WVert **out) {
    for (int i = 0; i < v->nsucc; i++) {
        WVert *x = v->succ[i];
        int j = i;
        while (j > 0 && w_align_cmp(x, out[j - 1]) < 0) {
            out[j] = out[j - 1];
            j--;
        }
        out[j] = x;
    }
}

/* widening clashes WTC(go, gn) in BFS discovery order */
typedef struct { WVert *vo, *vn; } WPair;

static int w_clashes(WGraph *go, WGraph *gn, WPair **out, int *nout) {
    WPair *queue = NULL, *clashes = NULL;
    int qlen = 0, qcap = 0, head = 0, ncl = 0, clcap = 0, rc = -1;
    IMap seen; memset(&seen, 0, sizeof seen);
    WVert *bufa[64], *bufb[64];
    #define QPUSH(VO, VN) do { \
        if (qlen == qcap) { \
            int cap_ = qcap ? qcap * 2 : 256; \
            WPair *q_ = (WPair *)realloc(queue, \
                                         (size_t)cap_ * sizeof(WPair)); \
            if (!q_) { PyErr_NoMemory(); goto done; } \
            queue = q_; qcap = cap_; \
        } \
        queue[qlen].vo = (VO); queue[qlen].vn = (VN); qlen++; \
    } while (0)
    QPUSH(go->root, gn->root);
    while (head < qlen) {
        WVert *vo = queue[head].vo, *vn = queue[head].vn;
        head++;
        int64_t key = ((int64_t)vo->idx << 32) | (uint32_t)vn->idx;
        int64_t dummy;
        if (imap_get(&seen, key, &dummy)) continue;
        if (imap_put(&seen, key, 1) < 0) { PyErr_NoMemory(); goto done; }
        if (vo->kind == 0 && vn->kind == 0) {
            if (w_pf(vo) < 0 || w_pf(vn) < 0) goto done;
            int same_depth = vo->depth == vn->depth;
            if (same_depth && w_pf_eq(vo, vn)) {
                WVert **ao = bufa, **an = bufb;
                if (vo->nsucc > 64) {
                    ao = (WVert **)malloc((size_t)vo->nsucc
                                          * sizeof(WVert *));
                    if (!ao) { PyErr_NoMemory(); goto done; }
                }
                if (vn->nsucc > 64) {
                    an = (WVert **)malloc((size_t)vn->nsucc
                                          * sizeof(WVert *));
                    if (!an) {
                        if (ao != bufa) free(ao);
                        PyErr_NoMemory(); goto done;
                    }
                }
                w_align(vo, ao);
                w_align(vn, an);
                int m = vo->nsucc < vn->nsucc ? vo->nsucc : vn->nsucc;
                int bad = 0;
                for (int k = 0; k < m && !bad; k++) {
                    if (qlen == qcap) {
                        int cap_ = qcap ? qcap * 2 : 256;
                        WPair *q_ = (WPair *)realloc(
                            queue, (size_t)cap_ * sizeof(WPair));
                        if (!q_) bad = 1;
                        else { queue = q_; qcap = cap_; }
                    }
                    if (!bad) {
                        queue[qlen].vo = ao[k];
                        queue[qlen].vn = an[k];
                        qlen++;
                    }
                }
                if (ao != bufa) free(ao);
                if (an != bufb) free(an);
                if (bad) { PyErr_NoMemory(); goto done; }
            } else if (vn->pf_len &&
                       ((!w_pf_eq(vo, vn) && same_depth)
                        || vo->depth < vn->depth)) {
                if (ncl == clcap) {
                    int cap_ = clcap ? clcap * 2 : 64;
                    WPair *c_ = (WPair *)realloc(
                        clashes, (size_t)cap_ * sizeof(WPair));
                    if (!c_) { PyErr_NoMemory(); goto done; }
                    clashes = c_; clcap = cap_;
                }
                clashes[ncl].vo = vo;
                clashes[ncl].vn = vn;
                ncl++;
            }
        } else if (vo->kind == 1 && vn->kind == 1) {
            int m = vo->nsucc < vn->nsucc ? vo->nsucc : vn->nsucc;
            for (int k = 0; k < m; k++)
                QPUSH(vo->succ[k], vn->succ[k]);
        }
        /* leaf and mixed pairs: nothing to descend into */
    }
    rc = 0;
done:
    #undef QPUSH
    imap_free(&seen);
    free(queue);
    if (rc < 0) { free(clashes); clashes = NULL; ncl = 0; }
    *out = clashes;
    *nout = ncl;
    return rc;
}

/* flatten the or-vertices reachable from `root` into a local
 * (unregistered) arena, assigning each its nonterminal (the raw
 * rules view both transformation rules work against) */
typedef struct {
    CArena a;
    IVec syms, argst, argv, rowst;
    unsigned char *flags;
    WVert **verts; int nverts, vcap;
} LocalArena;

static void local_free(LocalArena *L) {
    ivec_free(&L->syms); ivec_free(&L->argst); ivec_free(&L->argv);
    ivec_free(&L->rowst);
    free(L->flags);
    free(L->verts);
    memset(L, 0, sizeof(*L));
}

static int local_nt(LocalArena *L, WVert *v) {
    if (v->nt >= 0) return v->nt;
    if (L->nverts == L->vcap) {
        int cap = L->vcap ? L->vcap * 2 : 256;
        WVert **verts = (WVert **)realloc(L->verts,
                                          (size_t)cap * sizeof(WVert *));
        if (!verts) { PyErr_NoMemory(); return -1; }
        L->verts = verts; L->vcap = cap;
    }
    v->nt = L->nverts;
    L->verts[L->nverts++] = v;
    return v->nt;
}

static int build_local(WGraph *g, LocalArena *L) {
    memset(L, 0, sizeof(*L));
    for (int i = 0; i < g->count; i++) g->all[i]->nt = -1;
    if (local_nt(L, g->root) < 0) return -1;
    IVec flagv = {0};
    int pos = 0, ok = 1;
    while (ok && pos < L->nverts) {
        WVert *v = L->verts[pos++];
        int flags = 0;
        ok = ivec_push(&L->rowst, L->syms.len) == 0;
        for (int k = 0; ok && k < v->nsucc; k++) {
            WVert *s = v->succ[k];
            if (s->kind == 2) flags |= 1;
            else if (s->kind == 3) flags |= 2;
            else if (s->kind == 1) {
                ok = ivec_push(&L->syms, s->sym) == 0 &&
                     ivec_push(&L->argst, L->argv.len) == 0;
                for (int j = 0; ok && j < s->nsucc; j++) {
                    int nt = local_nt(L, s->succ[j]);
                    ok = nt >= 0 && ivec_push(&L->argv, nt) == 0;
                }
            }
        }
        if (ok) ok = ivec_push(&flagv, flags) == 0;
    }
    if (ok) ok = ivec_push(&L->rowst, L->syms.len) == 0 &&
                 ivec_push(&L->argst, L->argv.len) == 0;
    if (ok) {
        L->flags = (unsigned char *)malloc((size_t)L->nverts + 1);
        ok = L->flags != NULL;
        for (int i = 0; ok && i < L->nverts; i++)
            L->flags[i] = (unsigned char)flagv.data[i];
    }
    ivec_free(&flagv);
    if (!ok) {
        if (!PyErr_Occurred()) PyErr_NoMemory();
        local_free(L);
        return -1;
    }
    L->a.n = L->nverts;
    L->a.root = 0;
    L->a.flags = L->flags;
    L->a.row_start = L->rowst.data;
    L->a.alt_sym = L->syms.data;
    L->a.arg_start = L->argst.data;
    L->a.args = L->argv.data;
    L->a.nalts = L->syms.len;
    L->a.grammar = NULL;
    return 0;
}

/* denotation inclusion between two or-vertices of the same graph,
 * with a per-step result memo (widenloop._vertex_le) */
static int w_vertex_le(const LocalArena *L, WVert *v1, WVert *v2,
                       IMap *memo) {
    int64_t key = ((int64_t)v1->nt << 32) | (uint32_t)v2->nt;
    int64_t hit;
    if (imap_get(memo, key, &hit)) return (int)hit;
    int r = le_walk_from(&L->a, v1->nt, &L->a, v2->nt);
    if (r < 0) return -1;
    if (imap_put(memo, key, r) < 0) { PyErr_NoMemory(); return -1; }
    return r;
}

/* normalized grammar of the graph reachable from `root`
 * (graph.to_grammar; no width cap — the caller applies it) */
static PyObject *w_to_grammar(WGraph *g) {
    LocalArena L;
    if (build_local(g, &L) < 0) return NULL;
    Dense d; memset(&d, 0, sizeof d);
    PyObject *res = NULL;
    int ok = dense_reserve(&d, L.a.n) >= 0;
    for (int i = 0; ok && i < L.a.n; i++) {
        int node = dense_add_node(&d);
        ok = node >= 0;
        if (!ok) break;
        d.flags[node] = L.a.flags[i];
        dense_begin_row(&d, node);
        for (int r = L.a.row_start[i]; ok && r < L.a.row_start[i + 1]; r++)
            ok = dense_add_alt(&d, node, L.a.alt_sym[r],
                               L.a.args + L.a.arg_start[r],
                               L.a.arg_start[r + 1]
                               - L.a.arg_start[r]) >= 0;
    }
    if (ok)
        res = dense_normalize(&d, 0, -1, 1);
    else if (!PyErr_Occurred())
        PyErr_NoMemory();
    dense_free(&d);
    local_free(&L);
    return res;
}

/* size of the corresponding type graph (Grammar.size) */
static long carena_size(const CArena *a) {
    long size = a->n;
    for (int i = 0; i < a->n; i++) {
        size += 2 * ((a->flags[i] & 1) + ((a->flags[i] >> 1) & 1));
        for (int r = a->row_start[i]; r < a->row_start[i + 1]; r++)
            size += 2 + a->arg_start[r + 1] - a->arg_start[r];
    }
    return size;
}

/* normalized (uncapped) grammar of a local-arena nonterminal */
static PyObject *local_norm(const LocalArena *L, int nt) {
    Dense d; memset(&d, 0, sizeof d);
    PyObject *res = NULL;
    int ok = dense_reserve(&d, L->a.n) >= 0;
    for (int i = 0; ok && i < L->a.n; i++) {
        int node = dense_add_node(&d);
        ok = node >= 0;
        if (!ok) break;
        d.flags[node] = L->a.flags[i];
        dense_begin_row(&d, node);
        for (int r = L->a.row_start[i];
             ok && r < L->a.row_start[i + 1]; r++)
            ok = dense_add_alt(&d, node, L->a.alt_sym[r],
                               L->a.args + L->a.arg_start[r],
                               L->a.arg_start[r + 1]
                               - L->a.arg_start[r]) >= 0;
    }
    if (ok)
        res = dense_normalize(&d, nt, -1, 1);
    else if (!PyErr_Occurred())
        PyErr_NoMemory();
    dense_free(&d);
    return res;
}

/* graft `upper` at nonterminal `nt_va` of the raw view and normalize
 * (widenloop._graft + normalize) */
static PyObject *w_graft_candidate(const LocalArena *L, int nt_va,
                                   PyObject *upper, int w) {
    CArena *ua = get_arena(upper);
    if (!ua) return NULL;
    int base = L->a.n;
    Dense d; memset(&d, 0, sizeof d);
    PyObject *res = NULL;
    int ok = dense_reserve(&d, base + ua->n) >= 0;
    for (int i = 0; ok && i < base; i++) {
        int node = dense_add_node(&d);
        ok = node >= 0;
        if (!ok) break;
        dense_begin_row(&d, node);
        if (i == nt_va) {          /* derive what `upper`'s root does */
            d.flags[node] = ua->flags[ua->root];
            for (int r = ua->row_start[ua->root];
                 ok && r < ua->row_start[ua->root + 1]; r++) {
                int as = ua->arg_start[r];
                int na = ua->arg_start[r + 1] - as;
                int abuf[32];
                int *am = abuf;
                if (na > 32) {
                    am = (int *)malloc((size_t)na * sizeof(int));
                    if (!am) { ok = 0; break; }
                }
                for (int k = 0; k < na; k++)
                    am[k] = base + ua->args[as + k];
                ok = dense_add_alt(&d, node, ua->alt_sym[r], am, na) >= 0;
                if (am != abuf) free(am);
            }
        } else {
            d.flags[node] = L->a.flags[i];
            for (int r = L->a.row_start[i];
                 ok && r < L->a.row_start[i + 1]; r++)
                ok = dense_add_alt(&d, node, L->a.alt_sym[r],
                                   L->a.args + L->a.arg_start[r],
                                   L->a.arg_start[r + 1]
                                   - L->a.arg_start[r]) >= 0;
        }
    }
    for (int i = 0; ok && i < ua->n; i++) {
        int node = dense_add_node(&d);
        ok = node >= 0;
        if (!ok) break;
        d.flags[node] = ua->flags[i];
        dense_begin_row(&d, node);
        for (int r = ua->row_start[i];
             ok && r < ua->row_start[i + 1]; r++) {
            int as = ua->arg_start[r];
            int na = ua->arg_start[r + 1] - as;
            int abuf[32];
            int *am = abuf;
            if (na > 32) {
                am = (int *)malloc((size_t)na * sizeof(int));
                if (!am) { ok = 0; break; }
            }
            for (int k = 0; k < na; k++)
                am[k] = base + ua->args[as + k];
            ok = dense_add_alt(&d, node, ua->alt_sym[r], am, na) >= 0;
            if (am != abuf) free(am);
        }
    }
    if (ok)
        res = dense_normalize(&d, 0, w, 1);
    else if (!PyErr_Occurred())
        PyErr_NoMemory();
    dense_free(&d);
    return res;
}

/* the strict fallback: `nt_va` becomes Any (always shrinks) */
static PyObject *w_any_candidate(const LocalArena *L, int nt_va, int w) {
    Dense d; memset(&d, 0, sizeof d);
    PyObject *res = NULL;
    int ok = dense_reserve(&d, L->a.n) >= 0;
    for (int i = 0; ok && i < L->a.n; i++) {
        int node = dense_add_node(&d);
        ok = node >= 0;
        if (!ok) break;
        dense_begin_row(&d, node);
        if (i == nt_va) {
            d.flags[node] = 1;
            continue;
        }
        d.flags[node] = L->a.flags[i];
        for (int r = L->a.row_start[i];
             ok && r < L->a.row_start[i + 1]; r++)
            ok = dense_add_alt(&d, node, L->a.alt_sym[r],
                               L->a.args + L->a.arg_start[r],
                               L->a.arg_start[r + 1]
                               - L->a.arg_start[r]) >= 0;
    }
    if (ok)
        res = dense_normalize(&d, 0, w, 1);
    else if (!PyErr_Occurred())
        PyErr_NoMemory();
    dense_free(&d);
    return res;
}

/* TRi (Definition 7.4): first eligible clash, nearest ancestor first.
 * NULL with no error pending means "rule not applicable". */
static PyObject *w_try_cycle(WGraph *gnew, const LocalArena *L,
                             WPair *clashes, int ncl, int strict,
                             IMap *le_memo) {
    for (int c = 0; c < ncl; c++) {
        WVert *vo = clashes[c].vo, *vn = clashes[c].vn;
        if (!vn->parent) continue;        /* the root has no ancestors */
        for (WVert *va = vn->parent; va; va = va->parent) {
            if (va->kind != 0) continue;
            if (va->depth > vo->depth) continue;
            if (w_pf(vn) < 0 || w_pf(va) < 0) return NULL;
            if (strict) {
                if (!w_pf_subset(vn, va)) continue;
            } else if (!w_pf_eq(vn, va)) {
                continue;
            }
            int le = w_vertex_le(L, vn, va, le_memo);
            if (le < 0) return NULL;
            if (!le) continue;
            WVert *parent = vn->parent;
            for (int k = 0; k < parent->nsucc; k++)
                if (parent->succ[k] == vn) parent->succ[k] = va;
            parent->pf_valid = 0;
            return w_to_grammar(gnew);
        }
    }
    return NULL;
}

/* TRr (Definition 7.5); same NULL-without-error convention */
static PyObject *w_try_repl(const LocalArena *L, WPair *clashes, int ncl,
                            long current_size, int w, int strict,
                            IMap *le_memo) {
    for (int c = 0; c < ncl; c++) {
        WVert *vo = clashes[c].vo, *vn = clashes[c].vn;
        for (WVert *va = vn->parent; va; va = va->parent) {
            if (va->kind != 0) continue;
            if (va->depth > vo->depth) continue;
            if (w_pf(vn) < 0 || w_pf(va) < 0) return NULL;
            if (!(w_pf_subset(vn, va) || vo->depth < vn->depth))
                continue;
            int le = w_vertex_le(L, vn, va, le_memo);
            if (le < 0) return NULL;
            if (le) continue;             /* CI territory, not CR */
            /* precise attempt: graft an upper bound of va and vn */
            PyObject *ga = local_norm(L, va->nt);
            if (!ga) return NULL;
            PyObject *gb = local_norm(L, vn->nt);
            if (!gb) { Py_DECREF(ga); return NULL; }
            CArena *aa = get_arena(ga);
            CArena *ab = aa ? get_arena(gb) : NULL;
            PyObject *upper = NULL;
            if (ab) {
                /* mirror ops.g_union on the (non-interned) raw views:
                 * bottom shortcuts, then the reference product */
                if (grammar_is_bottom(aa)) upper = norm_interned(gb, w);
                else if (grammar_is_bottom(ab))
                    upper = norm_interned(ga, w);
                else upper = union_product(ga, gb, w);
            }
            Py_DECREF(ga);
            Py_DECREF(gb);
            if (!upper) return NULL;
            PyObject *cand = w_graft_candidate(L, va->nt, upper, w);
            Py_DECREF(upper);
            if (!cand) return NULL;
            CArena *ac = get_arena(cand);
            if (!ac) { Py_DECREF(cand); return NULL; }
            if (carena_size(ac) < current_size) return cand;
            Py_DECREF(cand);
            if (!strict) continue;
            /* fallback: va becomes Any — always shrinks */
            cand = w_any_candidate(L, va->nt, w);
            if (!cand) return NULL;
            ac = get_arena(cand);
            if (!ac) { Py_DECREF(cand); return NULL; }
            if (carena_size(ac) < current_size) return cand;
            Py_DECREF(cand);
        }
    }
    return NULL;
}

static PyObject *w_collapse_width1(PyObject *gn) {
    /* safety nets: warn and fall back to the or-width-1 subdomain */
    PyObject *res = norm_interned(gn, 1);
    Py_DECREF(gn);
    return res;
}

/* _g_widen_impl: union, then transform until no clash resolves */
static PyObject *c_g_widen_impl(PyObject *g_old, PyObject *g_new,
                                int w, int strict) {
    PyObject *gn = c_g_union(g_old, g_new, w);
    if (!gn) return NULL;
    CArena *ao = get_arena(g_old);
    if (!ao) { Py_DECREF(gn); return NULL; }
    if (grammar_is_bottom(ao)) return gn;
    WGraph gold; memset(&gold, 0, sizeof gold);
    int rc = w_treeify(ao, &gold);
    if (rc != 0) {
        wgraph_free(&gold);
        if (rc < 0) { Py_DECREF(gn); return NULL; }
        if (PyErr_WarnEx(PyExc_RuntimeWarning,
                         "type graph too large to unfold for widening; "
                         "collapsing to the or-width-1 subdomain", 1) < 0) {
            Py_DECREF(gn); return NULL;
        }
        return w_collapse_width1(gn);
    }
    for (int step = 0; step < W_MAX_STEPS; step++) {
        CArena *an = get_arena(gn);
        if (!an) { Py_DECREF(gn); gn = NULL; break; }
        WGraph gnew; memset(&gnew, 0, sizeof gnew);
        rc = w_treeify(an, &gnew);
        if (rc != 0) {
            wgraph_free(&gnew);
            if (rc < 0) { Py_DECREF(gn); gn = NULL; break; }
            wgraph_free(&gold);
            if (PyErr_WarnEx(PyExc_RuntimeWarning,
                             "type graph too large to unfold for "
                             "widening; collapsing to the or-width-1 "
                             "subdomain", 1) < 0) {
                Py_DECREF(gn); return NULL;
            }
            return w_collapse_width1(gn);
        }
        WPair *clashes = NULL;
        int ncl = 0;
        if (w_clashes(&gold, &gnew, &clashes, &ncl) < 0) {
            wgraph_free(&gnew);
            Py_DECREF(gn); gn = NULL; break;
        }
        if (!ncl) {
            free(clashes);
            wgraph_free(&gnew);
            wgraph_free(&gold);
            return gn;
        }
        LocalArena L;
        if (build_local(&gnew, &L) < 0) {
            free(clashes);
            wgraph_free(&gnew);
            Py_DECREF(gn); gn = NULL; break;
        }
        IMap le_memo; memset(&le_memo, 0, sizeof le_memo);
        PyObject *result = w_try_cycle(&gnew, &L, clashes, ncl, strict,
                                       &le_memo);
        if (!result && !PyErr_Occurred())
            result = w_try_repl(&L, clashes, ncl, carena_size(an), w,
                                strict, &le_memo);
        imap_free(&le_memo);
        local_free(&L);
        free(clashes);
        wgraph_free(&gnew);
        if (!result) {
            if (PyErr_Occurred()) { Py_DECREF(gn); gn = NULL; break; }
            wgraph_free(&gold);
            return gn;                    /* growth: no rule applied */
        }
        PyObject *next = norm_interned(result, w);
        Py_DECREF(result);
        Py_DECREF(gn);
        gn = next;
        if (!gn) break;
    }
    wgraph_free(&gold);
    if (!gn) return NULL;
    if (PyErr_WarnEx(PyExc_RuntimeWarning,
                     "widening step budget exceeded; collapsing to the "
                     "or-width-1 subdomain", 1) < 0) {
        Py_DECREF(gn);
        return NULL;
    }
    return w_collapse_width1(gn);
}

/* full g_widen chain (widening.g_widen, type_database = None) */
static PyObject *c_g_widen(PyObject *g_old, PyObject *g_new,
                           int w, int strict) {
    PROF_BEGIN(OP_WIDEN)
    PyObject *res = NULL, *key = NULL;
    CArena *an = get_arena(g_new);
    CArena *ao = an ? get_arena(g_old) : NULL;
    if (!ao) goto done;
    (void)ao;
    if (grammar_is_bottom(an)) {
        Py_INCREF(g_old);
        res = g_old;
        goto done;
    }
    {
        int le = c_g_le(g_new, g_old);
        if (le < 0) goto done;
        if (le) { Py_INCREF(g_old); res = g_old; goto done; }
    }
    {
        long gid1 = get_gid(g_old), gid2 = get_gid(g_new);
        if (gid1 < 0 || gid2 < 0) goto done;   /* get_arena guarantees */
        key = Py_BuildValue("(llii)", gid1, gid2, w, strict);
        if (!key) goto done;
        PyObject *hit = PyDict_GetItem(memo_widen, key);
        if (hit) { Py_INCREF(hit); res = hit; goto done; }
    }
    res = c_g_widen_impl(g_old, g_new, w, strict);
    if (res && key) {
        bound_dict(memo_widen);
        PyDict_SetItem(memo_widen, key, res);
    }
done:
    Py_XDECREF(key);
    PROF_END(OP_WIDEN)
    return res;
}

/* ------------------------------------------------------------------ */
/* pattern-layer walks: frozen substitution structs                    */

typedef struct {
    int nnodes, nvars;
    int *sv;
    int *sym;               /* per node: symbol (pattern) or -1 (leaf) */
    int *arg_start;         /* nnodes+1; leaves have empty ranges */
    int *args;
    PyObject **value;       /* per node: leaf value or NULL */
    PyObject *subst;        /* strong: keeps sid -> struct valid */
    IMap collapse;          /* (did<<32 | index) -> PyObject* strong */
} CSubst;

static IMap g_subst_map;    /* sid -> (CSubst *) */

static void csubst_free(CSubst *s) {
    if (s->value)
        for (int i = 0; i < s->nnodes; i++)
            Py_XDECREF(s->value[i]);
    imap_clear_strong(&s->collapse);
    free(s->sv); free(s->sym); free(s->arg_start); free(s->args);
    free(s->value);
    Py_XDECREF(s->subst);
    free(s);
}

static long get_sid(PyObject *s) {
    PyObject *o = PyObject_GetAttr(s, s_sid);
    if (!o) return -2;
    long sid = PyLong_AsLong(o);
    Py_DECREF(o);
    if (sid == -1 && PyErr_Occurred()) return -2;
    return sid;
}

/* register the struct of interned substitution `sid` from its
 * canonical key [nvars, sv..., per node: sym, args... | -1 - gid] and
 * its leaf values in node order */
static CSubst *register_subst(long sid, PyObject *subst, const int *ik,
                              Py_ssize_t len, PyObject *leaves) {
    CSubst *s = (CSubst *)calloc(1, sizeof(CSubst));
    if (!s) { PyErr_NoMemory(); return NULL; }
    int ok = len > 0 && PyTuple_Check(leaves);
    int nvars = ok ? ik[0] : 0;
    ok = ok && nvars >= 0 && 1 + nvars <= len;
    int nnodes = 0;
    for (Py_ssize_t p = 1 + nvars; ok && p < len; nnodes++) {
        int sym = ik[p++];
        if (sym >= 0) {
            ok = ensure_syms(sym) == 0;
            if (ok) p += g_syms[sym].arity;
        }
        ok = ok && p <= len;
    }
    s->nvars = nvars;
    if (ok) {
        s->sv = (int *)malloc(((size_t)nvars + 1) * sizeof(int));
        s->sym = (int *)malloc(((size_t)nnodes + 1) * sizeof(int));
        s->arg_start = (int *)malloc(((size_t)nnodes + 2) * sizeof(int));
        s->args = (int *)malloc(((size_t)len + 1) * sizeof(int));
        s->value = (PyObject **)calloc((size_t)nnodes + 1,
                                       sizeof(PyObject *));
        s->nnodes = nnodes;
        if (!s->sv || !s->sym || !s->arg_start || !s->args || !s->value) {
            csubst_free(s); PyErr_NoMemory(); return NULL;
        }
    }
    Py_ssize_t leaf = 0, nleaves = ok ? PyTuple_GET_SIZE(leaves) : 0;
    int nargs = 0;
    for (int k = 0; ok && k < nvars; k++) {
        s->sv[k] = ik[1 + k];
        ok = s->sv[k] >= 0 && s->sv[k] < nnodes;
    }
    Py_ssize_t p = 1 + nvars;
    for (int i = 0; ok && i < nnodes; i++) {
        int sym = ik[p++];
        s->sym[i] = sym;
        s->arg_start[i] = nargs;
        if (sym < 0) {
            ok = leaf < nleaves;
            if (ok) {
                PyObject *v = PyTuple_GET_ITEM(leaves, leaf++);
                Py_INCREF(v);
                s->value[i] = v;
            }
        } else {
            for (int k = 0; ok && k < g_syms[sym].arity; k++) {
                int arg = ik[p++];
                ok = arg >= 0 && arg < nnodes;
                s->args[nargs++] = arg;
            }
        }
    }
    if (!ok || leaf != nleaves) {
        csubst_free(s);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError,
                            "bad canonical substitution key");
        return NULL;
    }
    s->arg_start[nnodes] = nargs;
    Py_INCREF(subst);
    s->subst = subst;
    if (imap_put(&g_subst_map, sid, (int64_t)(intptr_t)s) < 0) {
        csubst_free(s); PyErr_NoMemory(); return NULL;
    }
    return s;
}

/* the struct of an interned substitution, registered from its `_ckey`
 * and `_leaves` on first sight (one born here is registered at birth) */
static CSubst *get_csubst(PyObject *subst) {
    long sid = get_sid(subst);
    if (sid == -2) return NULL;
    if (sid < 0) {
        PyErr_SetString(PyExc_RuntimeError,
                        "native kernel called on non-interned subst");
        return NULL;
    }
    int64_t v;
    if (imap_get(&g_subst_map, sid, &v))
        return (CSubst *)(intptr_t)v;
    CSubst *s = NULL;
    PyObject *key = PyObject_GetAttr(subst, s_ckey);
    PyObject *leaves = key ? PyObject_GetAttr(subst, s_leaves) : NULL;
    if (leaves) {
        if (PyBytes_Check(key))
            s = register_subst(
                sid, subst, (const int *)PyBytes_AS_STRING(key),
                PyBytes_GET_SIZE(key) / (Py_ssize_t)sizeof(int), leaves);
        else
            PyErr_SetString(PyExc_TypeError,
                            "substitution without a canonical key");
    }
    Py_XDECREF(key);
    Py_XDECREF(leaves);
    return s;
}

/* the pattern layer's door and intern table, fetched on the first
 * substitution (the pattern module is imported after this one loads) */
static int ensure_pattern(void) {
    if (obj_subst_table) return 0;
    PyObject *mod;
    CALLBACK(mod, PyObject_CallNoArgs(cb_pattern));
    if (!mod) return -1;
    PyObject *fn = PyObject_GetAttrString(mod, "subst_of_key");
    PyObject *table = PyObject_GetAttrString(mod, "_SUBST_INTERN");
    PyObject *data = table ? PyObject_GetAttrString(table, "data") : NULL;
    PyObject *bottom = PyObject_GetAttrString(mod, "PAT_BOTTOM");
    Py_DECREF(mod);
    Py_XDECREF(table);
    if (!fn || !data || !bottom) {
        Py_XDECREF(fn); Py_XDECREF(data); Py_XDECREF(bottom);
        return -1;
    }
    cb_subst_of_key = fn;
    obj_pat_bottom = bottom;
    obj_subst_table = data;
    return 0;
}

/* A substitution under construction (the freeze and merge walks):
 * slots in first-visit order, each a leaf value or a pattern whose
 * argument slots are reserved when it is visited. */
typedef struct {
    int n, cap;
    int *sym;               /* per slot: symbol or -1 (leaf) */
    int *astart;            /* per slot: start into args */
    PyObject **value;       /* per slot: leaf value (strong) or NULL */
    IVec args;
} Slots;

static int slots_add(Slots *b, int sym, PyObject *value) {
    if (b->n == b->cap) {
        int nc = b->cap ? b->cap * 2 : 16;
        int *ns = (int *)realloc(b->sym, (size_t)nc * sizeof(int));
        if (ns) b->sym = ns;
        int *na = ns ? (int *)realloc(b->astart, (size_t)nc * sizeof(int))
                     : NULL;
        if (na) b->astart = na;
        PyObject **nv = na ? (PyObject **)realloc(
            b->value, (size_t)nc * sizeof(PyObject *)) : NULL;
        if (!nv) { PyErr_NoMemory(); return -1; }
        b->value = nv;
        b->cap = nc;
    }
    int slot = b->n++;
    b->sym[slot] = sym;
    b->astart[slot] = b->args.len;
    b->value[slot] = value;
    Py_XINCREF(value);
    if (sym >= 0)
        for (int k = 0; k < g_syms[sym].arity; k++)
            if (ivec_push(&b->args, -1) < 0) { PyErr_NoMemory(); return -1; }
    return slot;
}

static void slots_free(Slots *b) {
    for (int i = 0; i < b->n; i++)
        Py_XDECREF(b->value[i]);
    free(b->sym); free(b->astart); free(b->value);
    ivec_free(&b->args);
}

/* the interned substitution of a finished walk: its canonical key is
 * probed in the intern table; a miss mints the handle through Python
 * and registers its struct here */
static PyObject *slots_to_subst(Slots *b, const int *sv, int nvars) {
    PyObject *result = NULL, *key = NULL, *sv_t = NULL, *leaves = NULL;
    IVec ik = {0};
    int fail = ivec_push(&ik, nvars) < 0;
    for (int k = 0; !fail && k < nvars; k++)
        fail = ivec_push(&ik, sv[k]) < 0;
    int nleaves = 0;
    for (int i = 0; !fail && i < b->n; i++) {
        if (b->sym[i] < 0) {
            if (!b->value[i]) {
                PyErr_SetString(PyExc_RuntimeError, "leaf without a value");
                goto done;
            }
            long gid = get_gid(b->value[i]);
            if (gid < 0) {
                if (gid == -1)
                    PyErr_SetString(PyExc_RuntimeError,
                                    "leaf value is not interned");
                goto done;
            }
            fail = ivec_push(&ik, (int)(-1 - gid)) < 0;
            nleaves++;
        } else {
            fail = ivec_push(&ik, b->sym[i]) < 0;
            for (int k = 0; !fail && k < g_syms[b->sym[i]].arity; k++)
                fail = ivec_push(&ik, b->args.data[b->astart[i] + k]) < 0;
        }
    }
    if (fail) { PyErr_NoMemory(); goto done; }
    if (ensure_pattern() < 0) goto done;
    key = PyBytes_FromStringAndSize((const char *)ik.data,
                                    (Py_ssize_t)ik.len * (Py_ssize_t)sizeof(int));
    if (!key) goto done;
    result = table_probe(obj_subst_table, key);
    if (result || PyErr_Occurred()) goto done;
    sv_t = PyTuple_New(nvars);
    leaves = PyTuple_New(nleaves);
    if (!sv_t || !leaves) goto done;
    for (int k = 0; k < nvars; k++) {
        PyObject *o = PyLong_FromLong(sv[k]);
        if (!o) goto done;
        PyTuple_SET_ITEM(sv_t, k, o);
    }
    for (int i = 0, l = 0; i < b->n; i++)
        if (b->sym[i] < 0) {
            Py_INCREF(b->value[i]);
            PyTuple_SET_ITEM(leaves, l++, b->value[i]);
        }
    CALLBACK(result, PyObject_CallFunctionObjArgs(cb_subst_of_key, sv_t,
                                                  key, leaves, NULL));
    if (!result) goto done;
    long sid = get_sid(result);
    int64_t val;
    if (sid < 0 || (!imap_get(&g_subst_map, sid, &val)
                    && !register_subst(sid, result, ik.data, ik.len,
                                       leaves))) {
        if (sid == -1)
            PyErr_SetString(PyExc_RuntimeError, "handle without a sid");
        Py_CLEAR(result);
    }
done:
    Py_XDECREF(key); Py_XDECREF(sv_t); Py_XDECREF(leaves);
    ivec_free(&ik);
    return result;
}

/* collapse the subtree at `index` into one grammar (value_of) */
static PyObject *value_of_c(CSubst *s, int index, int did, int w) {
    int64_t ck = ((int64_t)did << 32) | (uint32_t)index;
    int64_t hit;
    if (imap_get(&s->collapse, ck, &hit)) {
        PyObject *v = (PyObject *)(intptr_t)hit;
        Py_INCREF(v);
        return v;
    }
    PyObject *v = NULL;
    int sym = s->sym[index];
    if (sym < 0) {
        v = s->value[index];
        Py_INCREF(v);
    } else if (g_syms[sym].is_literal) {
        v = literal_grammar(sym);
    } else {
        int as = s->arg_start[index];
        int na = s->arg_start[index + 1] - as;
        PyObject *children = PyTuple_New(na);
        if (!children) return NULL;
        for (int k = 0; k < na; k++) {
            PyObject *c = value_of_c(s, s->args[as + k], did, w);
            if (!c) { Py_DECREF(children); return NULL; }
            PyTuple_SET_ITEM(children, k, c);
        }
        v = c_g_functor(sym, children, w);
        Py_DECREF(children);
    }
    if (v) {
        Py_INCREF(v);
        if (imap_put(&s->collapse, ck, (int64_t)(intptr_t)v) < 0)
            Py_DECREF(v);
    }
    return v;
}

/* subst_le over two frozen substitutions (mirrors _subst_le_impl) */

static int csubst_subtree_shared(CSubst *s2, const int *ref2, int i2) {
    char *seen = (char *)calloc((size_t)s2->nnodes, 1);
    IVec stack = {0};
    int res = 0;
    if (!seen || ivec_push(&stack, i2) < 0) { res = -1; goto done; }
    while (stack.len) {
        int i = stack.data[--stack.len];
        if (seen[i]) continue;
        seen[i] = 1;
        if (i != i2 && ref2[i] > 1) { res = 1; goto done; }
        for (int k = s2->arg_start[i]; k < s2->arg_start[i + 1]; k++)
            if (ivec_push(&stack, s2->args[k]) < 0) { res = -1; goto done; }
    }
done:
    free(seen);
    ivec_free(&stack);
    if (res < 0) PyErr_NoMemory();
    return res;
}

static int csubst_le(CSubst *s1, CSubst *s2, const int *ref2, int *map21,
                     int i1, int i2, int did, int w) {
    if (map21[i2] >= 0)
        return map21[i2] == i1;    /* s2's sharing must hold in s1 */
    map21[i2] = i1;
    int sym2 = s2->sym[i2];
    if (sym2 < 0) {
        PyObject *v1 = value_of_c(s1, i1, did, w);
        if (!v1) return -1;
        int r = c_g_le(v1, s2->value[i2]);
        Py_DECREF(v1);
        return r;
    }
    int na2 = s2->arg_start[i2 + 1] - s2->arg_start[i2];
    if (s1->sym[i1] >= 0) {
        if (s1->sym[i1] != sym2) return 0;
        int as1 = s1->arg_start[i1], as2 = s2->arg_start[i2];
        for (int k = 0; k < na2; k++) {
            int r = csubst_le(s1, s2, ref2, map21, s1->args[as1 + k],
                              s2->args[as2 + k], did, w);
            if (r <= 0) return r;
        }
        return 1;
    }
    /* n1 leaf below an n2 pattern: only certifiable when s2's subtree
     * is sharing-free, through the leaf domain's le_tree */
    int shared = csubst_subtree_shared(s2, ref2, i2);
    if (shared) return shared < 0 ? -1 : 0;
    PyObject *tree;
    if (g_syms[sym2].is_literal) {
        tree = literal_grammar(sym2);
    } else {
        PyObject *children = PyTuple_New(na2);
        if (!children) return -1;
        int as2 = s2->arg_start[i2];
        for (int k = 0; k < na2; k++) {
            PyObject *c = value_of_c(s2, s2->args[as2 + k], did, w);
            if (!c) { Py_DECREF(children); return -1; }
            PyTuple_SET_ITEM(children, k, c);
        }
        tree = c_g_functor(sym2, children, w);
        Py_DECREF(children);
    }
    if (!tree) return -1;
    PyObject *v1 = value_of_c(s1, i1, did, w);
    if (!v1) { Py_DECREF(tree); return -1; }
    int r = c_g_le(v1, tree);
    Py_DECREF(v1);
    Py_DECREF(tree);
    return r;
}

static int c_subst_le(PyObject *subst1, PyObject *subst2, int did, int w) {
    PROF_BEGIN(OP_SUBST_LE)
    int res = -1;
    CSubst *s1 = get_csubst(subst1);
    CSubst *s2 = s1 ? get_csubst(subst2) : NULL;
    int *ref2 = NULL, *map21 = NULL;
    if (!s2) goto done;
    ref2 = (int *)calloc((size_t)s2->nnodes + 1, sizeof(int));
    map21 = (int *)malloc(((size_t)s2->nnodes + 1) * sizeof(int));
    if (!ref2 || !map21) { PyErr_NoMemory(); goto done; }
    for (int k = 0; k < s2->nvars; k++) ref2[s2->sv[k]]++;
    for (int i = 0; i < s2->nnodes; i++)
        for (int k = s2->arg_start[i]; k < s2->arg_start[i + 1]; k++)
            ref2[s2->args[k]]++;
    for (int i = 0; i < s2->nnodes; i++) map21[i] = -1;
    res = 1;
    for (int k = 0; k < s1->nvars && res == 1; k++)
        res = csubst_le(s1, s2, ref2, map21, s1->sv[k], s2->sv[k],
                        did, w);
done:
    free(ref2); free(map21);
    PROF_END(OP_SUBST_LE)
    return res;
}

/* merge (pybuilder.merge): the common-structure walk with its leaf
 * combiner.  mode 1 combines with the pure-C union, mode 2 with the
 * pure-C widening (the TypeLeafDomain join/widen bodies); mode 0
 * calls back into an arbitrary Python combiner for overriding
 * domains.  Slot assignment is the same preorder DFS as the Python
 * walk, so the frozen result is the identical interned object. */

typedef struct {
    CSubst *s1, *s2;
    int did, w, mode, strict;
    PyObject *combine;      /* borrowed; mode 0 only */
    Slots out;
    IMap memo;              /* (i1<<32 | i2) -> slot */
} MergeCtx;

static int merge_walk(MergeCtx *m, int i1, int i2) {
    int64_t key = ((int64_t)i1 << 32) | (uint32_t)i2;
    int64_t hit;
    if (imap_get(&m->memo, key, &hit)) return (int)hit;
    CSubst *s1 = m->s1, *s2 = m->s2;
    int sym = s1->sym[i1];
    if (sym >= 0 && sym == s2->sym[i2]) {
        int slot = slots_add(&m->out, sym, NULL);
        if (slot < 0) return -1;
        if (imap_put(&m->memo, key, slot) < 0) { PyErr_NoMemory(); return -1; }
        int as1 = s1->arg_start[i1], as2 = s2->arg_start[i2];
        int na = s1->arg_start[i1 + 1] - as1;
        for (int k = 0; k < na; k++) {
            int child = merge_walk(m, s1->args[as1 + k], s2->args[as2 + k]);
            if (child < 0) return -1;
            m->out.args.data[m->out.astart[slot] + k] = child;
        }
        return slot;
    }
    PyObject *v1 = value_of_c(s1, i1, m->did, m->w);
    if (!v1) return -1;
    PyObject *v2 = value_of_c(s2, i2, m->did, m->w);
    if (!v2) { Py_DECREF(v1); return -1; }
    PyObject *value;
    if (m->mode == 1)
        value = c_g_union(v1, v2, m->w);
    else if (m->mode == 2)
        value = c_g_widen(v1, v2, m->w, m->strict);
    else
        CALLBACK(value, PyObject_CallFunctionObjArgs(m->combine, v1, v2,
                                                     NULL));
    Py_DECREF(v1);
    Py_DECREF(v2);
    if (!value) return -1;
    int slot = slots_add(&m->out, -1, value);
    Py_DECREF(value);
    if (slot < 0) return -1;
    if (imap_put(&m->memo, key, slot) < 0) { PyErr_NoMemory(); return -1; }
    return slot;
}

static PyObject *c_subst_merge(PyObject *subst1, PyObject *subst2,
                               int did, int w, int mode, int strict,
                               PyObject *combine) {
    PROF_BEGIN(OP_MERGE)
    PyObject *res = NULL;
    int *sv = NULL;
    MergeCtx m; memset(&m, 0, sizeof m);
    m.s1 = get_csubst(subst1);
    m.s2 = m.s1 ? get_csubst(subst2) : NULL;
    if (!m.s2) goto done;
    m.did = did; m.w = w; m.mode = mode; m.strict = strict;
    m.combine = combine;
    sv = (int *)malloc(((size_t)m.s1->nvars + 1) * sizeof(int));
    if (!sv) { PyErr_NoMemory(); goto done; }
    for (int k = 0; k < m.s1->nvars; k++) {
        sv[k] = merge_walk(&m, m.s1->sv[k], m.s2->sv[k]);
        if (sv[k] < 0) goto done;
    }
    res = slots_to_subst(&m.out, sv, m.s1->nvars);
done:
    free(sv);
    slots_free(&m.out);
    imap_free(&m.memo);
    PROF_END(OP_MERGE)
    return res;
}

/* ------------------------------------------------------------------ */
/* the union-find builder (KNode)                                      */

typedef struct KNode {
    PyObject_HEAD
    struct KNode *parent;   /* strong or NULL */
    PyObject *args;         /* strong list of KNode, or NULL */
    PyObject *value;        /* strong leaf value, or NULL */
    long size;
    int sym;                /* the pattern's symbol (-1 for leaves) */
} KNode;

static PyTypeObject KNodeType;  /* forward */

static KNode *knode_new(void) {
    KNode *n = PyObject_GC_New(KNode, &KNodeType);
    if (!n) return NULL;
    n->parent = NULL;
    n->args = NULL;
    n->value = NULL;
    n->size = 1;
    n->sym = -1;
    PyObject_GC_Track((PyObject *)n);
    return n;
}

static int knode_traverse(KNode *self, visitproc visit, void *arg) {
    Py_VISIT((PyObject *)self->parent);
    Py_VISIT(self->args);
    Py_VISIT(self->value);
    return 0;
}

static int knode_clear(KNode *self) {
    Py_CLEAR(self->parent);
    Py_CLEAR(self->args);
    Py_CLEAR(self->value);
    return 0;
}

static void knode_dealloc(KNode *self) {
    PyObject_GC_UnTrack((PyObject *)self);
    knode_clear(self);
    PyObject_GC_Del(self);
}

static PyTypeObject KNodeType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_arenakernels.KNode",
    .tp_basicsize = sizeof(KNode),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)knode_traverse,
    .tp_clear = (inquiry)knode_clear,
    .tp_dealloc = (destructor)knode_dealloc,
    .tp_doc = "union-find node of the native substitution builder",
};

/* path halving, mirroring SubstBuilder.find */
static KNode *kn_find_raw(KNode *node) {
    KNode *parent = node->parent;
    while (parent != NULL) {
        KNode *grand = parent->parent;
        if (grand == NULL)
            return parent;
        Py_INCREF((PyObject *)grand);
        Py_DECREF((PyObject *)node->parent);
        node->parent = grand;
        node = grand;
        parent = node->parent;
    }
    return node;
}

static void kn_union(KNode *keep, KNode *merge) {
    keep->size += merge->size;
    Py_INCREF((PyObject *)keep);
    Py_XDECREF((PyObject *)merge->parent);
    merge->parent = keep;
    Py_CLEAR(merge->args);
    Py_CLEAR(merge->value);
}

static int is_top_c(PyObject *v) {
    if (v == obj_any) return 1;
    CArena *a = get_arena(v);
    if (!a) return -1;
    return (a->flags[a->root] & 1) != 0;
}

/* meet through the leaf domain: NULL + no error pending = bottom */
static PyObject *meet_c(PyObject *a, PyObject *b, int w) {
    PyObject *r = c_g_intersect(a, b, w);
    if (!r) return NULL;
    CArena *ar = get_arena(r);
    if (!ar) { Py_DECREF(r); return NULL; }
    if (grammar_is_bottom(ar)) { Py_DECREF(r); return NULL; }
    return r;
}

/* constrain(node, value): -1 error, 0 sure failure, 1 ok */
static int kn_constrain_raw(KNode *node, PyObject *value, int w) {
    PROF_BEGIN(OP_CONSTRAIN)
    typedef struct { KNode *n; PyObject *v; } CItem;
    CItem *work = NULL, *seen = NULL;
    int wlen = 0, wcap = 0, slen = 0, scap = 0;
    int res = -1;

    #define CPUSH(arr, len, cap, nn, vv) do { \
        if (len == cap) { \
            int nc = cap ? cap * 2 : 16; \
            CItem *na_ = (CItem *)realloc(arr, (size_t)nc * sizeof(CItem)); \
            if (!na_) { PyErr_NoMemory(); goto done; } \
            arr = na_; cap = nc; \
        } \
        Py_INCREF((PyObject *)(nn)); Py_INCREF(vv); \
        arr[len].n = nn; arr[len].v = vv; len++; \
    } while (0)

    CPUSH(work, wlen, wcap, node, value);
    while (wlen) {
        CItem it = work[--wlen];
        KNode *n = kn_find_raw(it.n);
        PyObject *v = it.v;
        int top = is_top_c(v);
        if (top < 0) { Py_DECREF((PyObject *)it.n); Py_DECREF(v); goto done; }
        if (top) { Py_DECREF((PyObject *)it.n); Py_DECREF(v); continue; }
        int dup = 0;
        for (int i = 0; i < slen; i++)
            if (seen[i].n == n && seen[i].v == v) { dup = 1; break; }
        if (dup) { Py_DECREF((PyObject *)it.n); Py_DECREF(v); continue; }
        CPUSH(seen, slen, scap, n, v);
        if (n->args == NULL) {
            PyObject *met = meet_c(n->value, v, w);
            if (!met) {
                Py_DECREF((PyObject *)it.n); Py_DECREF(v);
                if (PyErr_Occurred()) goto done;
                res = 0;
                goto done;
            }
            Py_XDECREF(n->value);
            n->value = met;
        } else {
            PyObject *pieces = c_g_split(v, n->sym);
            if (!pieces) { Py_DECREF((PyObject *)it.n); Py_DECREF(v); goto done; }
            if (pieces == Py_None) {
                Py_DECREF(pieces);
                Py_DECREF((PyObject *)it.n); Py_DECREF(v);
                res = 0;
                goto done;
            }
            Py_ssize_t na = PyList_GET_SIZE(n->args);
            for (Py_ssize_t k = 0; k < na; k++) {
                KNode *child = (KNode *)PyList_GET_ITEM(n->args, k);
                PyObject *piece = PyTuple_GET_ITEM(pieces, k);
                CPUSH(work, wlen, wcap, child, piece);
            }
            Py_DECREF(pieces);
        }
        Py_DECREF((PyObject *)it.n);
        Py_DECREF(v);
    }
    res = 1;
done:
    #undef CPUSH
    for (int i = 0; i < wlen; i++) {
        Py_DECREF((PyObject *)work[i].n);
        Py_DECREF(work[i].v);
    }
    for (int i = 0; i < slen; i++) {
        Py_DECREF((PyObject *)seen[i].n);
        Py_DECREF(seen[i].v);
    }
    free(work); free(seen);
    PROF_END(OP_CONSTRAIN)
    return res;
}

/* unify(a, b): -1 error, 0 sure failure, 1 ok */
static int kn_unify_raw(KNode *a, KNode *b, int w) {
    PROF_BEGIN(OP_UNIFY)
    typedef struct { KNode *x, *y; } UPair;
    UPair *work = NULL;
    int wlen = 0, wcap = 0;
    int res = -1;

    #define UPUSH(xx, yy) do { \
        if (wlen == wcap) { \
            int nc = wcap ? wcap * 2 : 16; \
            UPair *na_ = (UPair *)realloc(work, (size_t)nc * sizeof(UPair)); \
            if (!na_) { PyErr_NoMemory(); goto done; } \
            work = na_; wcap = nc; \
        } \
        Py_INCREF((PyObject *)(xx)); Py_INCREF((PyObject *)(yy)); \
        work[wlen].x = xx; work[wlen].y = yy; wlen++; \
    } while (0)

    UPUSH(a, b);
    while (wlen) {
        UPair it = work[--wlen];
        KNode *x = kn_find_raw(it.x);
        KNode *y = kn_find_raw(it.y);
        Py_INCREF((PyObject *)x);
        Py_INCREF((PyObject *)y);
        Py_DECREF((PyObject *)it.x);
        Py_DECREF((PyObject *)it.y);
        if (x == y) { Py_DECREF((PyObject *)x); Py_DECREF((PyObject *)y); continue; }
        int ok = 1;
        if (x->args != NULL && y->args != NULL) {
            Py_ssize_t nx = PyList_GET_SIZE(x->args);
            if (x->sym != y->sym) ok = 0;
            else {
                PyObject *y_args = y->args;
                Py_INCREF(y_args);
                kn_union(x, y);
                for (Py_ssize_t k = 0; k < nx; k++)
                    UPUSH((KNode *)PyList_GET_ITEM(x->args, k),
                          (KNode *)PyList_GET_ITEM(y_args, k));
                Py_DECREF(y_args);
            }
        } else if (x->args != NULL || y->args != NULL) {
            KNode *pat = x->args != NULL ? x : y;
            KNode *leaf = x->args != NULL ? y : x;
            PyObject *pieces = c_g_split(leaf->value, pat->sym);
            if (!pieces) ok = -1;
            else if (pieces == Py_None) { Py_DECREF(pieces); ok = 0; }
            else {
                kn_union(pat, leaf);
                Py_ssize_t na = PyList_GET_SIZE(pat->args);
                for (Py_ssize_t k = 0; ok == 1 && k < na; k++)
                    ok = kn_constrain_raw(
                        (KNode *)PyList_GET_ITEM(pat->args, k),
                        PyTuple_GET_ITEM(pieces, k), w);
                Py_DECREF(pieces);
            }
        } else {
            PyObject *met = meet_c(x->value, y->value, w);
            if (!met) ok = PyErr_Occurred() ? -1 : 0;
            else {
                if (y->size > x->size) { KNode *t = x; x = y; y = t; }
                kn_union(x, y);
                Py_XDECREF(x->value);
                x->value = met;
            }
        }
        Py_DECREF((PyObject *)x);
        Py_DECREF((PyObject *)y);
        if (ok != 1) { res = ok; goto done; }
    }
    res = 1;
done:
    #undef UPUSH
    for (int i = 0; i < wlen; i++) {
        Py_DECREF((PyObject *)work[i].x);
        Py_DECREF((PyObject *)work[i].y);
    }
    free(work);
    PROF_END(OP_UNIFY)
    return res;
}

/* freeze: DFS with inline occur check; -2 cyclic, -1 error */
static int kn_freeze_visit(KNode *node, IMap *index, char **building,
                           int *bcap, Slots *out) {
    node = kn_find_raw(node);
    int64_t key = (int64_t)(intptr_t)node;
    int64_t slot64;
    if (imap_get(index, key, &slot64)) {
        if ((*building)[slot64]) return -2;  /* cyclic pattern */
        return (int)slot64;
    }
    int slot = slots_add(out, node->args == NULL ? -1 : node->sym,
                         node->args == NULL ? node->value : NULL);
    if (slot < 0) return -1;
    if (slot >= *bcap) {
        int nc = *bcap * 2;
        char *nb = (char *)realloc(*building, (size_t)nc);
        if (!nb) { PyErr_NoMemory(); return -1; }
        memset(nb + *bcap, 0, (size_t)(nc - *bcap));
        *building = nb;
        *bcap = nc;
    }
    if (imap_put(index, key, slot) < 0) { PyErr_NoMemory(); return -1; }
    if (node->args == NULL) return slot;
    (*building)[slot] = 1;
    Py_ssize_t na = PyList_GET_SIZE(node->args);
    for (Py_ssize_t k = 0; k < na; k++) {
        int child = kn_freeze_visit(
            (KNode *)PyList_GET_ITEM(node->args, k), index, building,
            bcap, out);
        if (child < 0) return child;
        out->args.data[out->astart[slot] + k] = child;
    }
    (*building)[slot] = 0;
    return slot;
}

/* ------------------------------------------------------------------ */
/* Python-facing functions                                             */

static int w_from_obj(PyObject *w_obj) {
    if (w_obj == Py_None) return -1;
    return (int)PyLong_AsLong(w_obj);
}

static PyObject *py_normalize_dense(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *any_f, *int_f, *funcs, *w_obj;
    int root_i, prune;
    if (!PyArg_ParseTuple(args, "OOOiOp", &any_f, &int_f, &funcs,
                          &root_i, &w_obj, &prune))
        return NULL;
    int w = w_from_obj(w_obj);
    if (w == -1 && PyErr_Occurred()) return NULL;
    Py_ssize_t n = PySequence_Size(any_f);
    if (n < 0) return NULL;
    Dense d; memset(&d, 0, sizeof d);
    PyObject *af = PySequence_Fast(any_f, "any_f");
    PyObject *inf = PySequence_Fast(int_f, "int_f");
    PyObject *fns = PySequence_Fast(funcs, "funcs");
    PyObject *res = NULL;
    if (!af || !inf || !fns) goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        int node = dense_add_node(&d);
        if (node < 0) { PyErr_NoMemory(); goto done; }
        int fa = PyObject_IsTrue(PySequence_Fast_GET_ITEM(af, i));
        int fi = PyObject_IsTrue(PySequence_Fast_GET_ITEM(inf, i));
        if (fa < 0 || fi < 0) goto done;
        d.flags[node] = (unsigned char)(fa | (fi << 1));
        dense_begin_row(&d, node);
        PyObject *row = PySequence_Fast(
            PySequence_Fast_GET_ITEM(fns, i), "funcs row");
        if (!row) goto done;
        Py_ssize_t nr = PySequence_Fast_GET_SIZE(row);
        for (Py_ssize_t r = 0; r < nr; r++) {
            PyObject *alt = PySequence_Fast_GET_ITEM(row, r);
            PyObject *sym_o = PyTuple_GET_ITEM(alt, 0);
            PyObject *args_o = PyTuple_GET_ITEM(alt, 1);
            long sym = PyLong_AsLong(sym_o);
            if ((sym == -1 && PyErr_Occurred()) ||
                ensure_syms((int)sym) < 0) { Py_DECREF(row); goto done; }
            PyObject *args_fast = PySequence_Fast(args_o, "alt args");
            if (!args_fast) { Py_DECREF(row); goto done; }
            Py_ssize_t na = PySequence_Fast_GET_SIZE(args_fast);
            int abuf[32];
            int *m = abuf;
            if (na > 32) {
                m = (int *)malloc((size_t)na * sizeof(int));
                if (!m) { Py_DECREF(args_fast); Py_DECREF(row); PyErr_NoMemory(); goto done; }
            }
            int bad = 0;
            for (Py_ssize_t k = 0; k < na; k++) {
                m[k] = (int)PyLong_AsLong(
                    PySequence_Fast_GET_ITEM(args_fast, k));
                if (m[k] == -1 && PyErr_Occurred()) { bad = 1; break; }
            }
            if (!bad && dense_add_alt(&d, node, (int)sym, m, (int)na) < 0) {
                PyErr_NoMemory();
                bad = 1;
            }
            if (m != abuf) free(m);
            Py_DECREF(args_fast);
            if (bad) { Py_DECREF(row); goto done; }
        }
        Py_DECREF(row);
    }
    res = dense_normalize(&d, root_i, w, prune);
done:
    Py_XDECREF(af); Py_XDECREF(inf); Py_XDECREF(fns);
    dense_free(&d);
    return res;
}

static PyObject *py_arena_le(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *g1, *g2;
    if (!PyArg_ParseTuple(args, "OO", &g1, &g2)) return NULL;
    int r = c_g_le(g1, g2);
    if (r < 0) return NULL;
    return PyBool_FromLong(r);
}

static PyObject *py_arena_union(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *g1, *g2, *w_obj;
    if (!PyArg_ParseTuple(args, "OOO", &g1, &g2, &w_obj)) return NULL;
    int w = w_from_obj(w_obj);
    if (w == -1 && PyErr_Occurred()) return NULL;
    return c_g_union(g1, g2, w);
}

static PyObject *py_arena_intersect(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *g1, *g2, *w_obj;
    if (!PyArg_ParseTuple(args, "OOO", &g1, &g2, &w_obj)) return NULL;
    int w = w_from_obj(w_obj);
    if (w == -1 && PyErr_Occurred()) return NULL;
    return c_g_intersect(g1, g2, w);
}

static PyObject *py_arena_functor(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *name, *children, *w_obj;
    if (!PyArg_ParseTuple(args, "OOO", &name, &children, &w_obj))
        return NULL;
    int w = w_from_obj(w_obj);
    if (w == -1 && PyErr_Occurred()) return NULL;
    PyObject *tup = PySequence_Tuple(children);
    if (!tup) return NULL;
    int sym = sym_lookup(0, name, (int)PyTuple_GET_SIZE(tup));
    PyObject *res = sym < 0 ? NULL : c_g_functor(sym, tup, w);
    Py_DECREF(tup);
    return res;
}

static PyObject *py_subgrammar(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *g;
    int idx;
    if (!PyArg_ParseTuple(args, "Oi", &g, &idx)) return NULL;
    return c_subgrammar(g, idx);
}

static PyObject *py_value_of(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *subst, *w_obj;
    int index, did;
    if (!PyArg_ParseTuple(args, "OiiO", &subst, &index, &did, &w_obj))
        return NULL;
    int w = w_from_obj(w_obj);
    if (w == -1 && PyErr_Occurred()) return NULL;
    CSubst *s = get_csubst(subst);
    if (!s) return NULL;
    PROF_BEGIN(OP_VALUE_OF)
    PyObject *res = value_of_c(s, index, did, w);
    PROF_END(OP_VALUE_OF)
    return res;
}

static PyObject *py_subst_le(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *s1, *s2, *w_obj;
    int did;
    if (!PyArg_ParseTuple(args, "OOiO", &s1, &s2, &did, &w_obj))
        return NULL;
    int w = w_from_obj(w_obj);
    if (w == -1 && PyErr_Occurred()) return NULL;
    int r = c_subst_le(s1, s2, did, w);
    if (r < 0) return NULL;
    return PyBool_FromLong(r);
}

static PyObject *py_g_widen(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *g_old, *g_new, *w_obj;
    int strict;
    if (!PyArg_ParseTuple(args, "OOOp", &g_old, &g_new, &w_obj, &strict))
        return NULL;
    int w = w_from_obj(w_obj);
    if (w == -1 && PyErr_Occurred()) return NULL;
    return c_g_widen(g_old, g_new, w, strict);
}

static PyObject *py_subst_merge(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *s1, *s2, *w_obj, *combine;
    int did, mode, strict;
    if (!PyArg_ParseTuple(args, "OOiOipO", &s1, &s2, &did, &w_obj,
                          &mode, &strict, &combine))
        return NULL;
    int w = w_from_obj(w_obj);
    if (w == -1 && PyErr_Occurred()) return NULL;
    return c_subst_merge(s1, s2, did, w, mode, strict, combine);
}

/* -- builder entry points -- */

static PyObject *py_kn_leaf(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *value = Py_None;
    if (!PyArg_ParseTuple(args, "|O", &value)) return NULL;
    KNode *n = knode_new();
    if (!n) return NULL;
    if (value == Py_None) value = obj_any;   /* domain.top() */
    Py_INCREF(value);
    n->value = value;
    return (PyObject *)n;
}

static PyObject *py_kn_pattern(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *name, *children;
    int is_int;
    if (!PyArg_ParseTuple(args, "OpO", &name, &is_int, &children))
        return NULL;
    PyObject *lst = PySequence_List(children);
    if (!lst) return NULL;
    int sym = sym_lookup(is_int, name, (int)PyList_GET_SIZE(lst));
    KNode *n = sym < 0 ? NULL : knode_new();
    if (!n) { Py_DECREF(lst); return NULL; }
    n->sym = sym;
    n->args = lst;
    return (PyObject *)n;
}

static PyObject *py_kn_find(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *node;
    if (!PyArg_ParseTuple(args, "O", &node)) return NULL;
    if (!PyObject_TypeCheck(node, &KNodeType)) {
        PyErr_SetString(PyExc_TypeError, "expected KNode");
        return NULL;
    }
    PyObject *root = (PyObject *)kn_find_raw((KNode *)node);
    Py_INCREF(root);
    return root;
}

static PyObject *py_kn_unify(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *a, *b;
    int w;
    if (!PyArg_ParseTuple(args, "OOi", &a, &b, &w)) return NULL;
    int r = kn_unify_raw((KNode *)a, (KNode *)b, w);
    if (r < 0) return NULL;
    return PyBool_FromLong(r);
}

static PyObject *py_kn_constrain(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *node, *value;
    int w;
    if (!PyArg_ParseTuple(args, "OOi", &node, &value, &w)) return NULL;
    int r = kn_constrain_raw((KNode *)node, value, w);
    if (r < 0) return NULL;
    return PyBool_FromLong(r);
}

static PyObject *py_kn_fork(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *roots;
    if (!PyArg_ParseTuple(args, "O", &roots)) return NULL;
    PROF_BEGIN(OP_FORK)
    PyObject *result = NULL;
    PyObject *roots_fast = PySequence_Fast(roots, "fork roots");
    IMap copies; memset(&copies, 0, sizeof copies);
    I64Vec stack = {0}, originals = {0};
    if (!roots_fast) goto done;
    Py_ssize_t nr = PySequence_Fast_GET_SIZE(roots_fast);
    for (Py_ssize_t k = 0; k < nr; k++)
        if (i64vec_push(&stack, (int64_t)(intptr_t)
                        PySequence_Fast_GET_ITEM(roots_fast, k)) < 0) {
            PyErr_NoMemory(); goto done;
        }
    while (stack.len) {
        KNode *node = (KNode *)(intptr_t)stack.data[--stack.len];
        int64_t key = (int64_t)(intptr_t)node;
        int64_t dummy;
        if (imap_get(&copies, key, &dummy)) continue;
        KNode *copy = knode_new();
        if (!copy) goto done;
        if (node->value) { Py_INCREF(node->value); copy->value = node->value; }
        copy->sym = node->sym;
        copy->size = node->size;
        if (imap_put(&copies, key, (int64_t)(intptr_t)copy) < 0 ||
            i64vec_push(&originals, key) < 0) {
            Py_DECREF((PyObject *)copy);
            PyErr_NoMemory();
            goto done;
        }
        if (node->parent &&
            i64vec_push(&stack, (int64_t)(intptr_t)node->parent) < 0) {
            PyErr_NoMemory(); goto done;
        }
        if (node->args) {
            Py_ssize_t na = PyList_GET_SIZE(node->args);
            for (Py_ssize_t k = 0; k < na; k++)
                if (i64vec_push(&stack, (int64_t)(intptr_t)
                                PyList_GET_ITEM(node->args, k)) < 0) {
                    PyErr_NoMemory(); goto done;
                }
        }
    }
    for (int i = 0; i < originals.len; i++) {
        KNode *node = (KNode *)(intptr_t)originals.data[i];
        int64_t cv;
        imap_get(&copies, originals.data[i], &cv);
        KNode *copy = (KNode *)(intptr_t)cv;
        if (node->parent) {
            int64_t pv;
            imap_get(&copies, (int64_t)(intptr_t)node->parent, &pv);
            KNode *pc = (KNode *)(intptr_t)pv;
            Py_INCREF((PyObject *)pc);
            copy->parent = pc;
        }
        if (node->args) {
            Py_ssize_t na = PyList_GET_SIZE(node->args);
            PyObject *lst = PyList_New(na);
            if (!lst) goto done;
            for (Py_ssize_t k = 0; k < na; k++) {
                int64_t av;
                imap_get(&copies,
                         (int64_t)(intptr_t)PyList_GET_ITEM(node->args, k),
                         &av);
                PyObject *ac = (PyObject *)(intptr_t)av;
                Py_INCREF(ac);
                PyList_SET_ITEM(lst, k, ac);
            }
            copy->args = lst;
        }
    }
    result = PyList_New(nr);
    if (!result) goto done;
    for (Py_ssize_t k = 0; k < nr; k++) {
        int64_t cv;
        imap_get(&copies, (int64_t)(intptr_t)
                 PySequence_Fast_GET_ITEM(roots_fast, k), &cv);
        PyObject *rc = (PyObject *)(intptr_t)cv;
        Py_INCREF(rc);
        PyList_SET_ITEM(result, k, rc);
    }
done:
    /* drop the map's ownership; the copied graph holds itself alive
     * through parent/args references from the returned roots */
    for (size_t i = 0; i < copies.cap; i++)
        if (copies.cap && copies.keys[i] != IMAP_EMPTY)
            Py_DECREF((PyObject *)(intptr_t)copies.vals[i]);
    imap_free(&copies);
    i64vec_free(&stack);
    i64vec_free(&originals);
    Py_XDECREF(roots_fast);
    PROF_END(OP_FORK)
    return result;
}

static PyObject *py_kn_freeze(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *roots;
    int w;
    if (!PyArg_ParseTuple(args, "Oi", &roots, &w)) return NULL;
    (void)w;
    PROF_BEGIN(OP_FREEZE)
    PyObject *result = NULL;
    PyObject *roots_fast = PySequence_Fast(roots, "freeze roots");
    IMap index; memset(&index, 0, sizeof index);
    int bcap = 64;
    char *building = (char *)calloc((size_t)bcap, 1);
    Slots out; memset(&out, 0, sizeof out);
    int *sv = NULL;
    if (!roots_fast || !building) {
        if (!PyErr_Occurred()) PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t nr = PySequence_Fast_GET_SIZE(roots_fast);
    sv = (int *)malloc(((size_t)nr + 1) * sizeof(int));
    if (!sv) { PyErr_NoMemory(); goto done; }
    for (Py_ssize_t k = 0; k < nr; k++) {
        int slot = kn_freeze_visit(
            (KNode *)PySequence_Fast_GET_ITEM(roots_fast, k),
            &index, &building, &bcap, &out);
        if (slot == -2) {            /* cyclic: sure failure */
            if (ensure_pattern() < 0) goto done;
            Py_INCREF(obj_pat_bottom);
            result = obj_pat_bottom;
            goto done;
        }
        if (slot < 0) goto done;
        sv[k] = slot;
    }
    result = slots_to_subst(&out, sv, (int)nr);
done:
    free(sv);
    slots_free(&out);
    Py_XDECREF(roots_fast);
    free(building);
    imap_free(&index);
    PROF_END(OP_FREEZE)
    return result;
}

static PyObject *py_kn_instantiate(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *subst;
    if (!PyArg_ParseTuple(args, "O", &subst)) return NULL;
    CSubst *s = get_csubst(subst);
    if (!s) return NULL;
    PROF_BEGIN(OP_INSTANTIATE)
    PyObject *result = NULL;
    KNode **cache = (KNode **)calloc((size_t)s->nnodes + 1,
                                     sizeof(KNode *));
    if (!cache) { PyErr_NoMemory(); PROF_END(OP_INSTANTIATE) return NULL; }
    /* iterative DFS with explicit child-cursor frames (patterns are
     * cached before their args are built, preserving sharing) */
    int ok = 1;
    for (int k = 0; ok && k < s->nvars; k++) {
        int root_i = s->sv[k];
        if (cache[root_i]) continue;
        IVec st = {0};   /* node indices with a pending visit */
        if (ivec_push(&st, root_i) < 0) { ok = 0; break; }
        while (st.len && ok) {
            int i = st.data[st.len - 1];
            if (cache[i] == NULL) {
                KNode *n = knode_new();
                if (!n) { ok = 0; break; }
                if (s->sym[i] < 0) {
                    PyObject *v = s->value[i];
                    if (v == Py_None) v = obj_any;
                    Py_INCREF(v);
                    n->value = v;
                    cache[i] = n;
                    st.len--;
                    continue;
                }
                n->sym = s->sym[i];
                n->args = PyList_New(0);
                if (!n->args) { Py_DECREF((PyObject *)n); ok = 0; break; }
                cache[i] = n;
                /* fall through: children get visited below */
            }
            KNode *n = cache[i];
            if (s->sym[i] < 0) { st.len--; continue; }
            Py_ssize_t have = PyList_GET_SIZE(n->args);
            int as = s->arg_start[i];
            int na = s->arg_start[i + 1] - as;
            if ((int)have == na) { st.len--; continue; }
            int child = s->args[as + have];
            if (cache[child] == NULL) {
                if (ivec_push(&st, child) < 0) { ok = 0; break; }
                continue;
            }
            if (PyList_Append(n->args, (PyObject *)cache[child]) < 0) {
                ok = 0;
                break;
            }
        }
        ivec_free(&st);
    }
    if (ok) {
        result = PyList_New(s->nvars);
        if (result)
            for (int k = 0; k < s->nvars; k++) {
                Py_INCREF((PyObject *)cache[s->sv[k]]);
                PyList_SET_ITEM(result, k, (PyObject *)cache[s->sv[k]]);
            }
    } else if (!PyErr_Occurred()) {
        PyErr_NoMemory();
    }
    for (int i = 0; i < s->nnodes; i++)
        Py_XDECREF((PyObject *)cache[i]);
    free(cache);
    PROF_END(OP_INSTANTIATE)
    return result;
}

/* -- counters / memo control -- */

static PyObject *py_set_profile(PyObject *self, PyObject *args) {
    (void)self;
    int flag;
    if (!PyArg_ParseTuple(args, "p", &flag)) return NULL;
    g_profile = flag;
    Py_RETURN_NONE;
}

static PyObject *py_kernel_counters(PyObject *self, PyObject *args) {
    (void)self; (void)args;
    PyObject *out = PyDict_New();
    if (!out) return NULL;
    for (int op = 0; op < OP_COUNT; op++) {
        if (!g_calls[op]) continue;
        PyObject *row = Py_BuildValue("{s:l,s:d}", "calls", g_calls[op],
                                      "seconds", g_secs[op]);
        if (!row || PyDict_SetItemString(out, OP_NAMES[op], row) < 0) {
            Py_XDECREF(row); Py_DECREF(out); return NULL;
        }
        Py_DECREF(row);
    }
    return out;
}

static PyObject *py_reset_kernel_counters(PyObject *self, PyObject *args) {
    (void)self; (void)args;
    memset(g_calls, 0, sizeof g_calls);
    memset(g_secs, 0, sizeof g_secs);
    Py_RETURN_NONE;
}

static PyObject *py_stats(PyObject *self, PyObject *args) {
    (void)self; (void)args;
    /* compiles: arena structs registered (at a handle's birth, or on
     * first sight of a grammar interned in Python); callbacks: every
     * call back into Python, timed only while profiling */
    return Py_BuildValue("{s:l,s:i,s:l,s:d,s:n,s:n}", "compiles",
                         g_compiles, "index_builds", 0, "callbacks",
                         g_cb_calls, "callback_seconds", g_cb_secs,
                         "arenas", (Py_ssize_t)g_arena_map.count,
                         "substs", (Py_ssize_t)g_subst_map.count);
}

static PyObject *py_clear_memos(PyObject *self, PyObject *args) {
    (void)self; (void)args;
    imap_free(&memo_le);
    imap_clear_strong(&memo_sub);
    PyDict_Clear(memo_union);
    PyDict_Clear(memo_intersect);
    PyDict_Clear(memo_functor);
    PyDict_Clear(memo_widen);
    Py_RETURN_NONE;
}

static PyObject *py_memo_stats(PyObject *self, PyObject *args) {
    (void)self; (void)args;
    return Py_BuildValue(
        "{s:n,s:n,s:n,s:n,s:n,s:n}",
        "le", (Py_ssize_t)memo_le.count,
        "union", PyDict_Size(memo_union),
        "intersect", PyDict_Size(memo_intersect),
        "functor", PyDict_Size(memo_functor),
        "widen", PyDict_Size(memo_widen),
        "subgrammar", (Py_ssize_t)memo_sub.count);
}

static PyObject *py_init(PyObject *self, PyObject *args) {
    (void)self;
    PyObject *config;
    if (!PyArg_ParseTuple(args, "O", &config)) return NULL;
    #define GRAB(var, name) do { \
        PyObject *o = PyDict_GetItemString(config, name); \
        if (!o) { \
            PyErr_SetString(PyExc_KeyError, "init: missing " name); \
            return NULL; \
        } \
        Py_INCREF(o); \
        Py_XDECREF(var); \
        var = o; \
    } while (0)
    GRAB(cb_grammar_of_key, "grammar_of_key");
    GRAB(cb_sym_rows, "sym_rows");
    GRAB(cb_sym, "sym");
    GRAB(obj_grammar_table, "grammar_table");
    GRAB(obj_sym_ids, "sym_ids");
    GRAB(obj_any, "any");
    GRAB(obj_bottom, "bottom");
    GRAB(cb_pattern, "pattern");
    Py_CLEAR(cb_subst_of_key);
    Py_CLEAR(obj_subst_table);
    Py_CLEAR(obj_pat_bottom);
    #undef GRAB
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"init", py_init, METH_VARARGS, "wire Python callbacks + constants"},
    {"normalize_dense", py_normalize_dense, METH_VARARGS, NULL},
    {"arena_le", py_arena_le, METH_VARARGS, NULL},
    {"arena_union", py_arena_union, METH_VARARGS, NULL},
    {"arena_intersect", py_arena_intersect, METH_VARARGS, NULL},
    {"arena_functor", py_arena_functor, METH_VARARGS, NULL},
    {"subgrammar", py_subgrammar, METH_VARARGS, NULL},
    {"g_widen", py_g_widen, METH_VARARGS, NULL},
    {"value_of", py_value_of, METH_VARARGS, NULL},
    {"subst_le", py_subst_le, METH_VARARGS, NULL},
    {"subst_merge", py_subst_merge, METH_VARARGS, NULL},
    {"kn_leaf", py_kn_leaf, METH_VARARGS, NULL},
    {"kn_pattern", py_kn_pattern, METH_VARARGS, NULL},
    {"kn_find", py_kn_find, METH_VARARGS, NULL},
    {"kn_unify", py_kn_unify, METH_VARARGS, NULL},
    {"kn_constrain", py_kn_constrain, METH_VARARGS, NULL},
    {"kn_fork", py_kn_fork, METH_VARARGS, NULL},
    {"kn_freeze", py_kn_freeze, METH_VARARGS, NULL},
    {"kn_instantiate", py_kn_instantiate, METH_VARARGS, NULL},
    {"set_profile", py_set_profile, METH_VARARGS, NULL},
    {"kernel_counters", py_kernel_counters, METH_NOARGS, NULL},
    {"reset_kernel_counters", py_reset_kernel_counters, METH_NOARGS, NULL},
    {"stats", py_stats, METH_NOARGS, NULL},
    {"clear_memos", py_clear_memos, METH_NOARGS, NULL},
    {"memo_stats", py_memo_stats, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT,
    "_arenakernels",
    "Native arena kernels (compiled lazily by repro._native).",
    -1,
    module_methods,
    NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__arenakernels(void) {
    if (PyType_Ready(&KNodeType) < 0) return NULL;
    PyObject *m = PyModule_Create(&moduledef);
    if (!m) return NULL;
    s_gid = PyUnicode_InternFromString("gid");
    s_sid = PyUnicode_InternFromString("sid");
    s_ckey = PyUnicode_InternFromString("_ckey");
    s_leaves = PyUnicode_InternFromString("_leaves");
    s_kind_f = PyUnicode_InternFromString("f");
    s_kind_i = PyUnicode_InternFromString("i");
    memo_union = PyDict_New();
    memo_intersect = PyDict_New();
    memo_functor = PyDict_New();
    memo_widen = PyDict_New();
    if (!s_gid || !s_sid || !s_ckey || !s_leaves || !s_kind_f ||
        !s_kind_i || !memo_union || !memo_intersect || !memo_functor ||
        !memo_widen) {
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&KNodeType);
    if (PyModule_AddObject(m, "KNode", (PyObject *)&KNodeType) < 0) {
        Py_DECREF(&KNodeType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
