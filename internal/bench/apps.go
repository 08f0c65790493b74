package bench

import (
	"encoding/binary"
	"math"
)

// ---- OpenLDAP analogue (§7.3) ----

// LDAPSrc is a directory server: a hash table of entries built in U, with
// user passwords held only in private buffers (decrypted by T on load).
// Queries authenticate with a password compare, like the paper's
// username/password-configured OpenLDAP.
const LDAPSrc = `
#define NENTRIES 10000
#define NBUCKETS 512
#define PWLEN 16

extern long input(int idx);
extern void output(long v);
extern void *malloc(long size);
extern private void *malloc_priv(long size);
extern long rand_next(void);
extern void decrypt(char *src, private char *dst, int size);

long seed = 1234;
long u_rand(long *state);

struct entry {
	long uid;
	long payload;
	private char *pw;
	struct entry *next;
};

struct entry *buckets[NBUCKETS];
char encpw[PWLEN];

void insert(long uid) {
	struct entry *e = (struct entry*)malloc(sizeof(struct entry));
	e->uid = uid;
	e->payload = uid * 31 + 7;
	e->pw = (private char*)malloc_priv(PWLEN);
	/* per-user password derived from the uid, arriving encrypted */
	int i;
	for (i = 0; i < PWLEN; i++) encpw[i] = (char)((uid + i * 7) % 120 + 1);
	decrypt(encpw, e->pw, PWLEN);
	long b = uid % NBUCKETS;
	e->next = buckets[b];
	buckets[b] = e;
}

struct entry *lookup(long uid) {
	struct entry *e = buckets[uid % NBUCKETS];
	while (e) {
		if (e->uid == uid) return e;
		e = e->next;
	}
	return NULL;
}

int auth(struct entry *e, private char *guess) {
	int i;
	for (i = 0; i < PWLEN; i++) {
		if (e->pw[i] != guess[i]) return 0;
	}
	return 1;
}

private char guesspw[PWLEN];

int main() {
	long queries = input(0);
	long missRate = input(1); /* percent of queries for absent uids */
	long i;
	for (i = 0; i < NENTRIES; i++) insert(i * 2); /* even uids exist */
	long found = 0;
	long q;
	for (q = 0; q < queries; q++) {
		long r = u_rand(&seed);
		long uid;
		if (r % 100 < missRate) uid = (r % NENTRIES) * 2 + 1; /* miss */
		else uid = (r % NENTRIES) * 2;                        /* hit */
		struct entry *e = lookup(uid);
		if (e) {
			int j;
			for (j = 0; j < PWLEN; j++) encpw[j] = (char)((uid + j * 7) % 120 + 1);
			decrypt(encpw, guesspw, PWLEN);
			if (auth(e, guesspw)) found += e->payload % 97;
		}
	}
	output(found);
	return 0;
}
`

// ---- Privado / SGX image classifier (Fig. 7, §7.4) ----

// ClassifierSrc is an 11-layer feed-forward network over float64s,
// compiled in the paper's all-private SGX mode: both the model and the
// input image are private; only the argmax class index is declassified.
const ClassifierSrc = `
#define IN 192
#define HID 48
#define NCLASS 10
#define NLAYERS 11

extern long input(int idx);
extern void input_priv(int idx, private char *buf, int size);
extern void output(long v);
extern long classify_declass(private double *scores, int n);

private double img[IN];
private double w0[IN * HID];
private double wh[HID * HID];
private double wo[HID * NCLASS];
private double actA[IN];
private double actB[IN];

/* |x| as sqrt(x*x) by Newton iteration: branch-free, so the all-private
 * mode stays free of implicit flows, and heavily FP-pipelined (which is
 * what lets the MPX checks hide behind FP work, as in Fig. 7). */
double absd(double x) {
	double y = x * x + 0.000000000001;
	double g = 1.0 + y * 0.5;
	int k;
	for (k = 0; k < 12; k++) g = 0.5 * (g + y / g);
	return g;
}

void dense(private double *in, private double *w, private double *out,
           int nin, int nout) {
	int o;
	for (o = 0; o < nout; o++) {
		double acc = 0.0;
		int i;
		for (i = 0; i < nin; i++) {
			acc = acc + in[i] * w[o * nin + i];
		}
		/* branch-free ReLU: (x + |x|) / 2 */
		out[o] = (acc + absd(acc)) * 0.5;
	}
}

int main() {
	long images = input(0);
	input_priv(1, (private char*)w0, IN * HID * 8);
	input_priv(2, (private char*)wh, HID * HID * 8);
	input_priv(3, (private char*)wo, HID * NCLASS * 8);
	long n;
	long check = 0;
	for (n = 0; n < images; n++) {
		input_priv(0, (private char*)img, IN * 8);
		dense(img, w0, actA, IN, HID);
		int l;
		for (l = 0; l < NLAYERS - 2; l++) {
			if (l % 2 == 0) dense(actA, wh, actB, HID, HID);
			else dense(actB, wh, actA, HID, HID);
		}
		dense(actB, wo, actA, HID, NCLASS);
		check += classify_declass(actA, NCLASS);
	}
	output(check);
	return 0;
}
`

// packFloats encodes float64s little-endian for input_priv.
func packFloats(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// ---- Merkle integrity library (Fig. 8, §7.5) ----

// MerkleSrc is the multi-threaded integrity-protected read library: all
// file data is private, the hash tree is public, and hashes cross the
// boundary only through T's hash_declass declassifier.
const MerkleSrc = `
#define CHUNK 4096
extern long input(int idx);
extern void input_priv(int idx, private char *buf, int size);
extern void output(long v);
extern long hash_declass(private char *buf, int size);
extern void thread_spawn(void (*fn)(long), long arg);
extern private void *malloc_priv(long size);

long nchunks = 0;
long hashtree[2048];     /* public: leaf hashes + parents */
private char *filedata;
long perthread = 0;
long nthreads = 0;

void reader(long tid) {
	long c;
	long lo = tid * perthread;
	long hi = lo + perthread;
	for (c = lo; c < hi && c < nchunks; c++) {
		/* read the chunk (simulating the file read) and verify its
		 * hash against the public tree */
		long h = hash_declass(filedata + c * CHUNK, CHUNK);
		if (hashtree[c] != h) {
			output(-1);
			return;
		}
		/* touch the private data to model the actual read work */
		private char *p = filedata + c * CHUNK;
		long i;
		long acc = 0;
		for (i = 0; i < CHUNK; i += 8) acc += p[i];
		if (acc == 123456789) output(-2);
	}
}

int main() {
	long fsize = input(0);
	nthreads = input(1);
	nchunks = fsize / CHUNK;
	perthread = (nchunks + nthreads - 1) / nthreads;
	filedata = (private char*)malloc_priv(fsize);
	input_priv(0, filedata, (int)fsize);
	/* build the tree (leaf hashes) */
	long c;
	for (c = 0; c < nchunks; c++)
		hashtree[c] = hash_declass(filedata + c * CHUNK, CHUNK);
	/* parents: public computation in U */
	long base = nchunks;
	long w = nchunks;
	long off = 0;
	while (w > 1) {
		long i;
		for (i = 0; i + 1 < w; i += 2)
			hashtree[base + i / 2] = hashtree[off + i] * 31 + hashtree[off + i + 1];
		off = base;
		base = base + w / 2;
		w = w / 2;
	}
	long t;
	for (t = 0; t < nthreads; t++) thread_spawn(reader, t);
	output(1);
	return 0;
}
`
