package bees

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"bees/internal/client"
	"bees/internal/features"
	"bees/internal/server"
)

// TestBeesdRestartKeepsState runs the beesd binary as a process: it
// commits one chunk into a server started with -wal-dir, stops it with
// SIGTERM, checks that the shutdown checkpoint landed inside the WAL
// directory, and restarts it over the same directory. The restarted
// server reports the same Stats, and a replay of the chunk's nonce gets
// the original IDs back instead of a second copy. After the second
// process stops, none of the first one's log segments is left. The same
// binary refuses -wal-dir in cluster mode, whose shard servers keep no
// log, and creates nothing.
func TestBeesdRestartKeepsState(t *testing.T) {
	if testing.Short() {
		t.Skip("beesd process smoke test skipped in -short mode")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "beesd")
	if out, err := exec.Command(gobin, "build", "-o", bin, "./cmd/beesd").CombinedOutput(); err != nil {
		t.Fatalf("build beesd: %v\n%s", err, out)
	}
	walDir := filepath.Join(tmp, "wal")

	out, err := exec.Command(bin, "-addr", "127.0.0.1:0", "-wal-dir", walDir,
		"-cluster-self", "127.0.0.1:1", "-cluster-peers", "127.0.0.1:1").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-wal-dir does not make cluster mode durable") {
		t.Fatalf("beesd with -wal-dir and -cluster-peers: %v\n%s", err, out)
	}
	if _, err := os.Stat(walDir); !os.IsNotExist(err) {
		t.Fatalf("refused cluster start touched the WAL directory: %v", err)
	}

	items := make([]server.UploadItem, 2)
	for i := range items {
		seed := uint64(i + 1)
		items[i] = server.UploadItem{
			Set:  &features.BinarySet{Descriptors: []features.Descriptor{{seed, seed * 3, seed * 5, seed * 7}}},
			Meta: server.UploadMeta{GroupID: int64(i), Bytes: 3000 + 100*i},
		}
	}
	const nonce = 0xBEE5D

	// First process: commit the chunk, then stop it the way an operator
	// or init system does.
	addr, stop := startBeesd(t, bin, walDir)
	c, remote := dialBeesd(t, addr)
	ids, err := remote.UploadItems(nonce, items)
	if err != nil {
		t.Fatal(err)
	}
	images, bytes, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if images != int64(len(items)) {
		t.Fatalf("server holds %d images after committing %d", images, len(items))
	}
	c.Close()
	stop()
	if _, err := os.Stat(filepath.Join(walDir, "checkpoint")); err != nil {
		t.Fatalf("no checkpoint in the WAL directory after SIGTERM: %v", err)
	}
	firstSegs := logSegments(t, walDir)

	// Second process over the same directory.
	addr, stop = startBeesd(t, bin, walDir)
	c, remote = dialBeesd(t, addr)
	images2, bytes2, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if images2 != images || bytes2 != bytes {
		t.Fatalf("restarted server: %d images, %d bytes; before the restart %d, %d", images2, bytes2, images, bytes)
	}
	again, err := remote.UploadItems(nonce, items)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, ids) {
		t.Fatalf("replayed nonce got IDs %v after the restart, want the original %v", again, ids)
	}
	if images3, _, err := c.Stats(); err != nil || images3 != images {
		t.Fatalf("after the replay: %d images, %v; want %d", images3, err, images)
	}
	c.Close()
	stop()

	// The log stays bounded across restarts: the second process's
	// shutdown deletes every segment the first one left behind.
	left := logSegments(t, walDir)
	for name := range firstSegs {
		if left[name] {
			t.Fatalf("segment %s of the first process survived the second one's shutdown (log now %v)", name, left)
		}
	}
}

// logSegments returns the names of the log segments in walDir: every
// file but the checkpoints.
func logSegments(t *testing.T, walDir string) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	segs := make(map[string]bool)
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "checkpoint") {
			segs[e.Name()] = true
		}
	}
	if len(segs) == 0 {
		t.Fatalf("no log segments in %s", walDir)
	}
	return segs
}

// startBeesd starts bin on a free loopback port persisting into walDir
// and returns the address it announced. stop sends SIGTERM and waits for
// a clean exit; it is safe to call twice, and a process the test never
// stops is killed when the test ends.
func startBeesd(t *testing.T, bin, walDir string) (addr string, stop func()) {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-wal-dir", walDir)
	out, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout, cmd.Stderr = w, w
	err = cmd.Start()
	w.Close() // the child holds the write end now
	if err != nil {
		out.Close()
		t.Fatal(err)
	}
	// Read the output until the listening line, then keep draining it so
	// the process never blocks on a full pipe; the read end hits EOF when
	// the process exits.
	lines := make(chan string)
	go func() {
		defer close(lines)
		defer out.Close()
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	var seen []string
	timeout := time.After(30 * time.Second)
	for addr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				cmd.Wait()
				t.Fatalf("beesd exited before listening; output:\n%s", strings.Join(seen, "\n"))
			}
			seen = append(seen, line)
			if rest, found := strings.CutPrefix(line, "beesd listening on "); found {
				addr = strings.TrimSpace(rest)
			}
		case <-timeout:
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("beesd never announced its address; output:\n%s", strings.Join(seen, "\n"))
		}
	}
	go func() {
		for range lines {
		}
	}()
	stopped := false
	t.Cleanup(func() { // a test that fails early leaves no process behind
		if !stopped {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return addr, func() {
		t.Helper()
		if stopped {
			return
		}
		stopped = true
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("beesd exit after SIGTERM: %v", err)
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatal("beesd did not exit after SIGTERM")
		}
	}
}

func dialBeesd(t *testing.T, addr string) (*client.Client, *client.RemoteServer) {
	t.Helper()
	opts := client.DefaultOptions()
	opts.RequestTimeout = 10 * time.Second
	c, err := client.DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, client.NewRemoteServer(c)
}
