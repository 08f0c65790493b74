package bench

import (
	"confllvm"
	"confllvm/internal/scenario"
)

// KVStoreSrc is the confidential key-value store: a chained hash table
// whose entry metadata (keys, lengths, chain links) lives in the public
// partition while every value lives in a private-partition buffer. Values
// arrive encrypted on the public wire and are decrypted by T straight into
// private memory; they leave only through T's ssl_send (re-encrypted).
// Misses are answered on the public channel — key existence is public,
// value contents never are. The wire protocol (8-byte LE words: op, key,
// and for put/scan a third word plus payload) is generated by
// internal/scenario, which also predicts the six output counters the
// server reports.
const KVStoreSrc = `
#define NBUCKETS 256
#define MAXV 128
#define RBUF 256

extern int recv(int fd, char *buf, int size);
extern int send(int fd, char *buf, int size);
extern int ssl_send(int fd, private char *buf, int size);
extern void decrypt(char *src, private char *dst, int size);
extern long input(int idx);
extern void output(long v);
extern void *malloc(long size);
extern void free(void *p);
extern private void *malloc_priv(long size);
extern void free_priv(private void *p);

struct kvent {
	long key;
	long len;
	private char *val;
	struct kvent *next;
};

struct kvent *buckets[NBUCKETS];
char req[RBUF];
char missb[8];
private char scanacc[MAXV];

long hits = 0;
long misses = 0;
long puts = 0;
long delhits = 0;
long scanhits = 0;

struct kvent *kv_find(long key) {
	struct kvent *e = buckets[key % NBUCKETS];
	while (e) {
		if (e->key == key) return e;
		e = e->next;
	}
	return NULL;
}

void kv_get(long key) {
	struct kvent *e = kv_find(key);
	if (e) {
		ssl_send(1, e->val, (int)e->len);
		hits++;
	} else {
		missb[0] = 'M';
		send(1, missb, 1);
		misses++;
	}
}

void kv_put(long key, long len) {
	struct kvent *e = kv_find(key);
	if (!e) {
		e = (struct kvent*)malloc(sizeof(struct kvent));
		e->key = key;
		e->val = (private char*)malloc_priv(MAXV);
		e->next = buckets[key % NBUCKETS];
		buckets[key % NBUCKETS] = e;
	}
	decrypt(req + 24, e->val, (int)len);
	e->len = len;
	puts++;
}

void kv_del(long key) {
	long b = key % NBUCKETS;
	struct kvent *e = buckets[b];
	struct kvent *prev = NULL;
	while (e) {
		if (e->key == key) {
			if (prev) prev->next = e->next;
			else buckets[b] = e->next;
			free_priv(e->val);
			free(e);
			delhits++;
			return;
		}
		prev = e;
		e = e->next;
	}
}

void kv_scan(long start, long span) {
	long k;
	for (k = start; k < start + span; k++) {
		struct kvent *e = kv_find(k);
		if (e) {
			/* touch the value in private memory (models the read work) */
			long i;
			for (i = 0; i < e->len; i++) scanacc[i] = e->val[i];
			scanhits++;
		}
	}
}

int main() {
	long n = input(0);
	long processed = 0;
	long r;
	for (r = 0; r < n; r++) {
		int got = recv(0, req, RBUF);
		if (got <= 0) break;
		long op = *(long*)(req);
		long a = *(long*)(req + 8);
		if (op == 1) kv_get(a);
		else if (op == 2) kv_put(a, *(long*)(req + 16));
		else if (op == 3) kv_del(a);
		else if (op == 4) kv_scan(a, *(long*)(req + 16));
		processed++;
	}
	/* the scan accumulator is private: it may leave only encrypted */
	ssl_send(1, scanacc, MAXV);
	output(processed);
	output(hits);
	output(misses);
	output(puts);
	output(delhits);
	output(scanhits);
	return 0;
}
`

// kvSources is the KV store program: every KV scenario shares one
// artifact per variant (Key "kv").
var kvSources = []confllvm.Source{
	{Name: "kv.c", Code: KVStoreSrc},
	{Name: "ulib.c", Code: ULib},
}

// KVWorkload wraps the confidential KV store serving one scenario's
// traffic.
func KVWorkload(spec scenario.Spec) Workload {
	return scenarioWorkload("kv", kvSources, spec)
}
