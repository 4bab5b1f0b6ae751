package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinary compiles the daemon into a temp dir. The smoke tests need the
// real binary: they exercise the flag surface and the listener announcement
// exactly as a deployment would.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "logpsimd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestDaemonSmoke starts the daemon on an ephemeral port, submits the same
// job twice and checks the second is a byte-identical cache hit — the
// determinism-as-cache-key contract end to end over a real socket.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	bin := buildBinary(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	// The daemon announces its resolved address on the first stdout line.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no listener announcement: %v", sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	idx := strings.Index(line, marker)
	if idx < 0 {
		t.Fatalf("unexpected announcement %q", line)
	}
	base := strings.TrimSpace(line[idx+len(marker):])

	spec := `{"program":"broadcast","machine":{"p":8,"l":6,"o":2,"g":4}}`
	post := func() (string, []byte) {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Logpsimd-Cache"), body
	}
	mark, cold := post()
	if mark != "miss" {
		t.Errorf("first submission marked %q, want miss", mark)
	}
	mark, warm := post()
	if mark != "hit" {
		t.Errorf("second submission marked %q, want hit", mark)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("cache hit served different bytes than the cold run")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}
