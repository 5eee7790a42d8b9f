package wirenet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
)

// A worker is one shard of the message fabric, running in its own OS
// process (the hub re-execs its own binary with the env vars below).
// Shard a holds k lanes to the hub, one per receiver shard c: the hub
// routes a message u→v on lane (shard(u), shard(v)), and the lane's
// relay sends it straight back as a delivery. The worker keeps no
// state and parses nothing but frame lengths and kinds, so every
// message crosses real TCP twice and its arrival order at the hub is
// genuinely nondeterministic (the adversarial scheduler the protocol
// must tolerate), while all protocol state stays hub-side where the
// driver can reach it. Losing a worker loses only in-transit frames,
// which the hub retransmits end-to-end (see hub.go), which is what
// makes kill -9 a safe fault to inject.

// Environment contract between hub and worker process.
const (
	envWorker = "WIRENET_WORKER" // shard index; presence selects worker mode
	envShards = "WIRENET_SHARDS" // total shard count
	envHub    = "WIRENET_HUB"    // hub listener address
	envToken  = "WIRENET_TOKEN"  // shared secret, checked on every handshake
)

// MaybeWorker turns the current process into a wirenet worker if it
// was spawned as one, and never returns in that case. It MUST be the
// first call in main() (or TestMain) of any binary that constructs a
// Hub: the hub spawns workers by re-executing its own binary, and
// without this check the child would run the program instead of the
// shard.
func MaybeWorker() {
	spec := os.Getenv(envWorker)
	if spec == "" {
		return
	}
	id, err := strconv.Atoi(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wirenet worker: bad %s=%q: %v\n", envWorker, spec, err)
		os.Exit(2)
	}
	k, err := strconv.Atoi(os.Getenv(envShards))
	if err != nil || k <= 0 {
		fmt.Fprintf(os.Stderr, "wirenet worker: bad %s=%q\n", envShards, os.Getenv(envShards))
		os.Exit(2)
	}
	workerMain(id, k, os.Getenv(envHub), os.Getenv(envToken))
	os.Exit(0)
}

// workerMain dials the shard's k lanes and relays until one of them
// ends: the hub closes every lane when it shuts the worker down, and
// EOF on any lane means the hub is gone or has given up on this
// process.
func workerMain(shard, k int, hubAddr, token string) {
	done := make(chan struct{}, k)
	for c := 0; c < k; c++ {
		conn, err := net.Dial("tcp", hubAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wirenet worker %d: dial hub %s: %v\n", shard, hubAddr, err)
			os.Exit(1)
		}
		hello := []byte{fkHello}
		hello = binary.AppendUvarint(hello, uint64(shard))
		hello = binary.AppendUvarint(hello, uint64(c))
		hello = binary.AppendUvarint(hello, uint64(os.Getpid()))
		hello = appendString(hello, token)
		w := bufio.NewWriter(conn)
		if writeFrame(w, hello) != nil || w.Flush() != nil {
			fmt.Fprintf(os.Stderr, "wirenet worker %d: hello on lane %d failed\n", shard, c)
			os.Exit(1)
		}
		go func() {
			relay(conn)
			done <- struct{}{}
		}()
	}
	<-done
}

// relay runs one lane until a shutdown frame, EOF or a malformed
// length: every route frame goes back on the same connection as a
// deliver frame, byte-identical after the kind byte, and every other
// kind is dropped. It reuses one body buffer and writes from the
// reading goroutine, flushing only when no further input is buffered,
// so a burst goes back in as few writes as it came in. A write blocks
// only on the hub's reader of this lane, which never waits on anything
// but the driver's pulse, so the relay cannot join a wait cycle, and
// TCP backpressure bounds what it holds.
func relay(conn io.ReadWriter) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	defer w.Flush()
	var body []byte
	for {
		var err error
		body, err = readFrame(r, body)
		if err != nil {
			return
		}
		switch body[0] {
		case fkRoute:
			body[0] = fkDeliver
			if writeFrame(w, body) != nil {
				return
			}
		case fkShutdown:
			return
		}
		if r.Buffered() == 0 && w.Flush() != nil {
			return
		}
	}
}
