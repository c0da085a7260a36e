//go:build linux

package memo

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"
)

// The kill -9 suite: a process that dies inside a Put must leave a
// directory that a restarted cache serves only complete entries from.
// The putter is this test binary, re-executed through TestMain. The
// suite pauses it with SIGSTOP and waits for it with wait4, hence the
// build constraint.

// crashDirEnv names the directory the re-executed binary puts into.
const crashDirEnv = "MEMO_TEST_CRASH_DIR"

// crashVersion is the code version of the putter's entries.
const crashVersion = "crash-v1"

// crashPuts bounds the putter, so an orphaned child cannot fill a disk.
const crashPuts = 20000

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashDirEnv); dir != "" {
		runPutter(dir)
		return
	}
	os.Exit(m.Run())
}

// runPutter puts testKey(i) → testStats(i) for i = 0, 1, ... into a
// directory cache and prints i on stdout once its Put has returned,
// until it is killed or has made crashPuts puts.
func runPutter(dir string) {
	c, err := New(Config{Version: crashVersion, Dir: dir, MaxEntries: 16})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for i := 0; i < crashPuts; i++ {
		c.Put(testKey(i), testStats(i))
		fmt.Println(i)
	}
}

// TestMemoDirSurvivesKill9: kill a putter with SIGKILL in the middle
// of a Put, after it has acknowledged k puts, then open its directory.
// The cut put's temp file must be gone, every acknowledged key must
// read back its exact stats, and every entry file must decode as a
// complete entry of the right version whose key hashes to its file
// name.
func TestMemoDirSurvivesKill9(t *testing.T) {
	for _, k := range []int{1, 9, 40, 150, 600} {
		dir := t.TempDir()
		acked := killInsidePut(t, dir, k)
		if tmps, _ := filepath.Glob(filepath.Join(dir, tempPattern)); len(tmps) != 1 {
			t.Fatalf("k=%d: the killed putter left %d temp files, want its cut put's one", k, len(tmps))
		}

		c, err := New(Config{Version: crashVersion, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, tempPattern)); len(tmps) > 0 {
			t.Errorf("k=%d: reopening left %d temp files: %v", k, len(tmps), tmps)
		}
		for _, i := range acked {
			st, ok := c.Get(testKey(i))
			if !ok || st != testStats(i) {
				t.Errorf("k=%d: acknowledged key %d reads %+v, %v; want %+v", k, i, st, ok, testStats(i))
			}
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) < len(acked) {
			t.Errorf("k=%d: %d entry files for %d acknowledged puts", k, len(files), len(acked))
		}
		for _, path := range files {
			checkEntryFile(t, path)
		}
	}
}

// maxPauses bounds killInsidePut's search for a put in progress.
const maxPauses = 10000

// killInsidePut runs the putter on dir until it has acknowledged k
// puts. It then pauses the putter with SIGSTOP until a pause finds a
// put's temp file in dir, and kills it there with SIGKILL: the putter
// is then inside storeDisk, between CreateTemp and the rename, so the
// kill always cuts a put short. It returns every index the putter
// acknowledged before it died.
func killInsidePut(t *testing.T, dir string, k int) []int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Read acknowledgements as they come, so that the putter never
	// waits on a full pipe outside a put.
	var (
		mu    sync.Mutex
		lines []string
	)
	reached, eof := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(eof)
		sc := bufio.NewScanner(stdout)
		for n := 1; sc.Scan(); n++ {
			mu.Lock()
			lines = append(lines, sc.Text())
			mu.Unlock()
			if n == k {
				close(reached)
			}
		}
	}()

	cut := false
	select {
	case <-reached:
		pid := cmd.Process.Pid
		for pause := 0; pause < maxPauses && !cut; pause++ {
			if cmd.Process.Signal(syscall.SIGSTOP) != nil {
				break
			}
			var ws syscall.WaitStatus
			if _, err := syscall.Wait4(pid, &ws, syscall.WUNTRACED, nil); err != nil || !ws.Stopped() {
				break // the putter exited
			}
			tmps, _ := filepath.Glob(filepath.Join(dir, tempPattern))
			if cut = len(tmps) > 0; !cut {
				cmd.Process.Signal(syscall.SIGCONT)
			}
		}
	case <-eof:
	}
	// Process.Kill is SIGKILL: it ends a paused process too, and the
	// putter gets no chance to finish the put it is in.
	cmd.Process.Kill()
	<-eof
	cmd.Wait()
	if !cut {
		t.Fatalf("k=%d: no pause of the putter found a put in progress", k)
	}

	acked := make([]int, len(lines))
	for j, line := range lines {
		if acked[j], err = strconv.Atoi(line); err != nil {
			t.Fatalf("putter said %q", line)
		}
	}
	return acked
}

// checkEntryFile requires path to hold one complete entry of
// crashVersion whose key names the file and whose stats are the ones
// the putter wrote for that key.
func checkEntryFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e diskEntry
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil || dec.More() {
		t.Errorf("%s: not one complete entry (%v): %q", filepath.Base(path), err, raw)
		return
	}
	if e.Version != crashVersion {
		t.Errorf("%s: version %q, want %q", filepath.Base(path), e.Version, crashVersion)
	}
	if got := e.Key.fileName(); got != filepath.Base(path) {
		t.Errorf("%s: key hashes to %s", filepath.Base(path), got)
	}
	i, err := strconv.Atoi(e.Key.TraceHash) // testKey's zero-padded index
	if err != nil || e.Key != testKey(i).normalize() {
		t.Errorf("%s: foreign key %+v", filepath.Base(path), e.Key)
		return
	}
	if e.Stats != testStats(i) {
		t.Errorf("%s: stats %+v, want %+v", filepath.Base(path), e.Stats, testStats(i))
	}
}
