package bench

import (
	"confllvm"
	"confllvm/internal/trt"
)

// WebServerSrc is the NGINX-analogue (§7.2): request parsing, password
// authentication, private file serving through T's SSL path, and request
// logging with URI encryption. Everything except the log buffers is
// private, mirroring the paper's annotation of NGINX.
const WebServerSrc = `
#define MAXF 65536
extern int recv(int fd, char *buf, int size);
extern void decrypt(char *src, private char *dst, int size);
extern void read_passwd(char *uname, private char *pass, int size);
extern int read_file_priv(char *name, private char *buf, int size);
extern int ssl_send(int fd, private char *buf, int size);
extern void encrypt_log(private char *src, char *dst, int size);
extern void log_write(char *buf, int size);
extern long input(int idx);
extern void output(long v);

int strlen(char *s);
void memcpy_priv(private char *dst, private char *src, long n);

private char fbuf[MAXF];
private char resp[MAXF + 64];
private char upw[32];
private char spw[32];
private char uribuf[64];
char logenc[64];
char req[256];

int authenticate(private char *a, private char *b, int n) {
	int i;
	for (i = 0; i < n; i++) {
		if (a[i] != b[i]) return 0;
		if (a[i] == 0) break;
	}
	return 1;
}

/* request layout: "<fname> <uname> " + 32 bytes encrypted password */
int handle(void) {
	int n = recv(0, req, 256);
	if (n <= 0) return 0;
	char fname[64];
	char uname[64];
	int i = 0;
	int j = 0;
	while (req[i] != ' ' && i < n) { fname[j] = req[i]; i++; j++; }
	fname[j] = 0;
	i++;
	j = 0;
	while (req[i] != ' ' && i < n) { uname[j] = req[i]; i++; j++; }
	uname[j] = 0;
	i++;

	decrypt(req + i, upw, 32);
	read_passwd(uname, spw, 32);
	if (!authenticate(upw, spw, 32)) return -1;

	int fn = read_file_priv(fname, fbuf, MAXF);

	/* response header (public chars stored into the private response
	 * buffer: L flows into H) */
	int h = 0;
	resp[h] = 'O'; h++;
	resp[h] = 'K'; h++;
	resp[h] = ' '; h++;
	memcpy_priv(resp + h, fbuf, fn);

	ssl_send(1, resp, h + fn);

	/* log: the URI is treated as sensitive; it is encrypted into the
	 * public log buffer before logging (the paper's encrypt_log). */
	int ul = strlen(fname);
	for (i = 0; i <= ul && i < 63; i++) uribuf[i] = fname[i];
	encrypt_log(uribuf, logenc, 64);
	log_write(logenc, 64);
	return 1;
}

int main() {
	long reqs = input(0);
	long served = 0;
	long r;
	for (r = 0; r < reqs; r++) {
		if (handle() > 0) served++;
	}
	output(served);
	return 0;
}
`

// WebRequest builds one simulated wire request.
func WebRequest(fname, uname, password string) []byte {
	req := []byte(fname + " " + uname + " ")
	pw := make([]byte, 32)
	copy(pw, password)
	return append(req, trt.EncryptWithDefaultKey(pw)...)
}

// WebWorld builds a world with nReqs identical requests for a file of
// fileSize bytes.
func WebWorld(nReqs int, fileSize int) *confllvm.World {
	w := confllvm.NewWorld()
	content := make([]byte, fileSize)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	w.PrivFiles["f0"] = content
	w.Passwords["alice"] = []byte("correct-horse")
	w.Params = []int64{int64(nReqs)}
	for i := 0; i < nReqs; i++ {
		w.NetIn = append(w.NetIn, WebRequest("f0", "alice", "correct-horse"))
	}
	return w
}
