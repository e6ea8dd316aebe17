package memcache

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

	"rnb/internal/obs"
)

// ServerStats are the counters exposed via the "stats" command.
type ServerStats struct {
	CmdGet       atomic.Uint64
	CmdSet       atomic.Uint64
	GetHits      atomic.Uint64
	GetMisses    atomic.Uint64
	Transactions atomic.Uint64 // one per client command (text line or binary command; a quiet-get run counts once at its flush)
	CurrConns    atomic.Int64
	TotalConns   atomic.Uint64
}

// Backend is what a protocol Server serves from: the local Store, or —
// for an RnB proxy — a whole replicated cluster. GetMulti receives the
// complete key list of a get/gets command so a proxy can bundle it.
// The keys slice is the connection's scratch and is valid only for the
// duration of the call; the key strings themselves may be kept.
type Backend interface {
	GetMulti(keys []string) (map[string]*Item, error)
	// GetsMulti is GetMulti with authoritative CAS tokens: an RnB proxy
	// must read from distinguished copies here, because only their
	// tokens are valid for a subsequent cas.
	GetsMulti(keys []string) (map[string]*Item, error)
	Set(it *Item) error
	// SetPinned services the RnB "setp" extension.
	SetPinned(it *Item) error
	Add(it *Item) error
	Replace(it *Item) error
	CompareAndSwap(it *Item) error
	Append(key string, data []byte) error
	Prepend(key string, data []byte) error
	// Increment adjusts a decimal value by delta (negative decrements,
	// clamping at zero) and returns the new value.
	Increment(key string, delta int64) (uint64, error)
	Delete(key string) error
	Touch(key string, exp int32) error
	FlushAll() error
	// BackendStats returns extra "STAT <key> <value>" lines.
	BackendStats() map[string]string
}

// storeBackend adapts a Store to the Backend interface.
type storeBackend struct{ s *Store }

func (b storeBackend) GetMulti(keys []string) (map[string]*Item, error) {
	out := make(map[string]*Item, len(keys))
	for _, k := range keys {
		if it, err := b.s.Get(k); err == nil {
			out[k] = it
		}
	}
	return out, nil
}
func (b storeBackend) GetsMulti(keys []string) (map[string]*Item, error) {
	return b.GetMulti(keys) // local tokens are always authoritative
}

// GetMultiTimed implements timedBackend: the traced read path, also
// reporting the shard-lock wait the batch accumulated.
func (b storeBackend) GetMultiTimed(keys []string) (map[string]*Item, int64, error) {
	out := make(map[string]*Item, len(keys))
	var wait int64
	for _, k := range keys {
		it, w, err := b.s.GetTimed(k)
		wait += w
		if err == nil {
			out[k] = it
		}
	}
	return out, wait, nil
}
func (b storeBackend) Set(it *Item) error                    { return b.s.Set(it) }
func (b storeBackend) SetPinned(it *Item) error              { return b.s.SetPinned(it, true) }
func (b storeBackend) Add(it *Item) error                    { return b.s.Add(it) }
func (b storeBackend) Replace(it *Item) error                { return b.s.Replace(it) }
func (b storeBackend) CompareAndSwap(it *Item) error         { return b.s.CompareAndSwap(it) }
func (b storeBackend) Append(key string, data []byte) error  { return b.s.Append(key, data) }
func (b storeBackend) Prepend(key string, data []byte) error { return b.s.Prepend(key, data) }
func (b storeBackend) Increment(key string, delta int64) (uint64, error) {
	return b.s.Increment(key, delta)
}
func (b storeBackend) Delete(key string) error { return b.s.Delete(key) }
func (b storeBackend) Touch(key string, exp int32) error {
	return b.s.Touch(key, exp)
}
func (b storeBackend) FlushAll() error { b.s.FlushAll(); return nil }
func (b storeBackend) BackendStats() map[string]string {
	return map[string]string{
		"curr_items": fmt.Sprintf("%d", b.s.Len()),
		"bytes":      fmt.Sprintf("%d", b.s.Bytes()),
		"evictions":  fmt.Sprintf("%d", b.s.Evictions()),
	}
}

// Server is a memcached protocol server over a Backend. It speaks both
// the text and the binary wire format on one port (sniffing the first
// byte per connection, like memcached -B auto); SetProtocols can
// restrict it to one of them.
type Server struct {
	store   *Store // nil when serving a non-Store backend
	backend Backend
	stats   ServerStats

	// recorder is the server-side flight recorder: per-phase histograms
	// plus a ring of recent ServerSpans, fed by every traced command.
	// Always present — tracing is a per-command client decision, so the
	// server must stand ready on every connection.
	recorder *obs.ServerRecorder

	// noText / noBinary disable one wire format (SetProtocols). Both
	// false — the zero value — serves both.
	noText   bool
	noBinary bool

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer wraps a Store in a protocol server.
func NewServer(store *Store) *Server {
	return &Server{
		store:    store,
		backend:  storeBackend{s: store},
		recorder: obs.NewServerRecorder(0),
		conns:    make(map[net.Conn]struct{}),
	}
}

// NewServerBackend serves an arbitrary Backend (e.g. an RnB proxy).
func NewServerBackend(b Backend) *Server {
	return &Server{
		backend:  b,
		recorder: obs.NewServerRecorder(0),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Recorder returns the server-side flight recorder (per-phase
// histograms plus the ServerSpan ring fed by traced commands).
func (s *Server) Recorder() *obs.ServerRecorder { return s.recorder }

// Store returns the server's storage engine, or nil when serving a
// custom backend.
func (s *Server) Store() *Store { return s.store }

// SetProtocols restricts the wire formats the server accepts ("text",
// "binary", or "both", the default). A connection opening with the
// disabled format is dropped at the sniff, before any command is
// processed. Must be called before Serve; it is not synchronized with
// live connections.
func (s *Server) SetProtocols(mode string) error {
	switch mode {
	case "both":
		s.noText, s.noBinary = false, false
	case "text":
		s.noText, s.noBinary = false, true
	case "binary":
		s.noText, s.noBinary = true, false
	default:
		return fmt.Errorf("memcache: unknown protocol mode %q (want text, binary, or both)", mode)
	}
	return nil
}

// Stats returns the server's counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// ListenAndServe listens on addr ("host:port"; ":0" picks a free port)
// and serves until Close. It returns the bound address via Addr once
// listening.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("memcache: server closed")
	}
	s.listener = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.stats.CurrConns.Add(1)
		s.stats.TotalConns.Add(1)
		go s.handleConn(conn)
	}
}

// Addr returns the listener address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Close stops the listener, closes live connections, and waits for
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.stats.CurrConns.Add(-1)
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	// The fill reader stamps when bytes actually arrive, so traced
	// commands can report how long they queued in the read buffer.
	fr := &fillReader{c: conn}
	r := bufio.NewReaderSize(fr, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	// Protocol sniff, as memcached does on a shared port: binary
	// requests always start with the 0x80 magic, which is not a
	// printable text-command byte.
	if first, err := r.Peek(1); err == nil && first[0] == binMagicReq {
		if s.noBinary {
			return
		}
		s.serveBinary(fr, r, w)
		return
	}
	if s.noText {
		return
	}
	var pending obs.TraceContext
	var sc textScratch
	for {
		line, err := sc.readLine(r)
		if err != nil {
			return
		}
		if len(line) == 0 {
			continue
		}
		// The trace prefix arms the NEXT command; it is not a
		// transaction of its own and sends no reply. A malformed prefix
		// answers ERROR and arms nothing.
		if tc, ok, malformed := parseTraceLine(line); ok || malformed {
			pending = tc
			if malformed {
				if _, err := w.WriteString("ERROR\r\n"); err != nil {
					return
				}
				if err := w.Flush(); err != nil {
					return
				}
			}
			continue
		}
		s.stats.Transactions.Add(1)
		var ct *connTrace
		if pending.Valid() {
			verb, _ := nextField(line)
			ct = s.armTrace(pending, fr, string(verb))
			pending = obs.TraceContext{}
		}
		quit, err := s.dispatch(line, r, w, s.backendFor(ct), &sc)
		if err != nil {
			return
		}
		var dispatchEnd time.Time
		if ct != nil {
			dispatchEnd = time.Now()
		}
		if err := w.Flush(); err != nil {
			return
		}
		if ct != nil {
			st := s.finishTrace(ct, dispatchEnd, time.Now())
			if err := writeServerTraceLine(w, &st); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
		if quit {
			return
		}
	}
}

// textScratch is a text connection's reusable parse state: the current
// command line and its fields. Both are overwritten by the next
// command, so nothing that outlives a command may keep either slice
// (the field strings themselves are immutable and safe to keep).
type textScratch struct {
	line   []byte
	fields []string
}

// readLine reads one \r\n- (or \n-) terminated line, without the
// terminator, into the scratch line buffer. Fragments are appended
// across bufio.ErrBufferFull, so a line longer than the read buffer
// (a get of several hundred long keys) still arrives whole.
func (sc *textScratch) readLine(r *bufio.Reader) ([]byte, error) {
	if cap(sc.line) > 64<<10 {
		sc.line = nil // one huge line must not stay pinned for the connection's life
	}
	sc.line = sc.line[:0]
	for {
		frag, err := r.ReadSlice('\n')
		sc.line = append(sc.line, frag...)
		if err == nil {
			return bytes.TrimRight(sc.line, "\r\n"), nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

// asciiSpace is the ASCII subset of unicode.IsSpace.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the fields of s to dst, splitting exactly where
// strings.Fields would. The fields are substrings of s, so the only
// allocation is dst's growth, which a reused dst stops paying.
func appendFields(dst []string, s string) []string {
	start := -1
	for i := 0; i < len(s); {
		space, width := false, 1
		if c := s[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += width
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// dispatch processes one command line against be — the raw backend, or
// the per-command timing wrapper when the command is traced. It
// returns quit=true for the "quit" command and a non-nil error for
// connection-fatal conditions. The line is converted to a string once
// and tokenized in place into sc's reused field slice.
func (s *Server) dispatch(line []byte, r *bufio.Reader, w *bufio.Writer, be Backend, sc *textScratch) (quit bool, err error) {
	sc.fields = appendFields(sc.fields[:0], string(line))
	fields := sc.fields
	if len(fields) == 0 {
		_, err = w.WriteString("ERROR\r\n")
		return false, err
	}
	switch fields[0] {
	case "get":
		return false, s.handleGet(fields[1:], w, false, be)
	case "gets":
		return false, s.handleGet(fields[1:], w, true, be)
	case "set", "add", "replace", "setp", "append", "prepend":
		return false, s.handleStore(fields[0], fields[1:], r, w, be)
	case "cas":
		return false, s.handleCas(fields[1:], r, w, be)
	case "incr", "decr":
		return false, s.handleIncrDecr(fields[0] == "decr", fields[1:], w, be)
	case "delete":
		return false, s.handleDelete(fields[1:], w, be)
	case "touch":
		return false, s.handleTouch(fields[1:], w, be)
	case "flush_all":
		ferr := be.FlushAll()
		if !hasNoreply(fields[1:]) {
			if ferr != nil {
				_, err = fmt.Fprintf(w, "SERVER_ERROR %s\r\n", ferr)
			} else {
				_, err = w.WriteString("OK\r\n")
			}
		}
		return false, err
	case "version":
		_, err = w.WriteString("VERSION " + VersionBanner + "\r\n")
		return false, err
	case "stats":
		return false, s.handleStats(w)
	case "quit":
		return true, nil
	default:
		_, err = w.WriteString("ERROR\r\n")
		return false, err
	}
}

func hasNoreply(fields []string) bool {
	return len(fields) > 0 && fields[len(fields)-1] == "noreply"
}

func (s *Server) handleGet(keys []string, w *bufio.Writer, withCAS bool, be Backend) error {
	if len(keys) == 0 {
		_, err := w.WriteString("ERROR\r\n")
		return err
	}
	s.stats.CmdGet.Add(uint64(len(keys)))
	var items map[string]*Item
	var gerr error
	if withCAS {
		items, gerr = be.GetsMulti(keys)
	} else {
		items, gerr = be.GetMulti(keys)
	}
	if gerr != nil {
		_, err := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", gerr)
		return err
	}
	for _, key := range keys {
		it, ok := items[key]
		if !ok {
			s.stats.GetMisses.Add(1)
			continue
		}
		s.stats.GetHits.Add(1)
		if err := writeValueHeader(w, it, withCAS); err != nil {
			return err
		}
		if _, err := w.Write(it.Value); err != nil {
			return err
		}
		if _, err := w.WriteString("\r\n"); err != nil {
			return err
		}
	}
	_, err := w.WriteString("END\r\n")
	return err
}

// writeValueHeader writes "VALUE <key> <flags> <bytes> [cas]\r\n",
// assembled in a pooled scratch buffer so a hit costs no allocation.
func writeValueHeader(w *bufio.Writer, it *Item, withCAS bool) error {
	scratch := lineScratch.Get().(*[320]byte)
	b := scratch[:0]
	b = append(b, "VALUE "...)
	b = append(b, it.Key...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(it.Flags), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(it.Value)), 10)
	if withCAS {
		b = append(b, ' ')
		b = strconv.AppendUint(b, it.CAS, 10)
	}
	b = append(b, '\r', '\n')
	_, err := w.Write(b)
	lineScratch.Put(scratch)
	return err
}

// readStorePayload parses "<key> <flags> <exptime> <bytes> [noreply]"
// plus the data block. On a malformed command line it still consumes
// the client's data block (by declared size when parseable, otherwise
// one line) so the connection stays in sync, as memcached does.
func readStorePayload(fields []string, extra int, r *bufio.Reader) (it *Item, casID uint64, noreply bool, cerr string, err error) {
	// discard swallows the pending data block after a client error when
	// its size is known; with an unparseable size nothing is consumed
	// (the client cannot have meant a well-formed block).
	discard := func(size int64, sized bool) error {
		if !sized {
			return nil
		}
		_, derr := io.CopyN(io.Discard, r, size+2)
		return derr
	}

	want := 4 + extra
	if len(fields) == want+1 && fields[want] == "noreply" {
		noreply = true
		fields = fields[:want]
	}
	var size uint64
	var sizeOK bool
	if len(fields) >= 4 {
		if v, serr := parseUint(fields[3], 31); serr == nil && v <= MaxValueLen {
			size, sizeOK = v, true
		}
	}
	fail := func(msg string) (*Item, uint64, bool, string, error) {
		return nil, 0, noreply, msg, discard(int64(size), sizeOK)
	}
	if len(fields) != want {
		return fail("bad command line format")
	}
	flags, ferr := parseUint(fields[1], 32)
	if ferr != nil {
		return fail("bad flags")
	}
	exp, eerr := parseInt32(fields[2])
	if eerr != nil {
		return fail("bad exptime")
	}
	if !sizeOK {
		return fail("bad data chunk size")
	}
	if extra == 1 {
		if casID, err = parseUint(fields[4], 64); err != nil {
			return fail("bad cas id")
		}
	}
	data := make([]byte, size+2)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, 0, noreply, "", err
	}
	if !bytes.HasSuffix(data, []byte("\r\n")) {
		return nil, 0, noreply, "bad data chunk", nil
	}
	return &Item{
		Key:        fields[0],
		Value:      data[:size],
		Flags:      uint32(flags),
		Expiration: exp,
	}, casID, noreply, "", nil
}

func (s *Server) handleStore(cmd string, fields []string, r *bufio.Reader, w *bufio.Writer, be Backend) error {
	s.stats.CmdSet.Add(1)
	it, _, noreply, cerr, err := readStorePayload(fields, 0, r)
	if err != nil {
		return err
	}
	if cerr != "" {
		_, err := fmt.Fprintf(w, "CLIENT_ERROR %s\r\n", cerr)
		return err
	}
	var serr error
	switch cmd {
	case "set":
		serr = be.Set(it)
	case "setp":
		// RnB extension (§IV): a pinned set. The stored copy is exempt
		// from LRU eviction — used for distinguished copies so they can
		// never miss. Not part of stock memcached.
		serr = be.SetPinned(it)
	case "add":
		serr = be.Add(it)
	case "replace":
		serr = be.Replace(it)
	case "append":
		serr = be.Append(it.Key, it.Value)
	case "prepend":
		serr = be.Prepend(it.Key, it.Value)
	}
	if noreply {
		return nil
	}
	switch {
	case serr == nil:
		_, err = w.WriteString("STORED\r\n")
	case errors.Is(serr, ErrNotStored):
		_, err = w.WriteString("NOT_STORED\r\n")
	case errors.Is(serr, ErrBadKey):
		_, err = w.WriteString("CLIENT_ERROR bad key\r\n")
	case errors.Is(serr, ErrTooLarge):
		_, err = w.WriteString("SERVER_ERROR object too large for cache\r\n")
	default:
		_, err = fmt.Fprintf(w, "SERVER_ERROR %s\r\n", serr)
	}
	return err
}

func (s *Server) handleCas(fields []string, r *bufio.Reader, w *bufio.Writer, be Backend) error {
	s.stats.CmdSet.Add(1)
	it, casID, noreply, cerr, err := readStorePayload(fields, 1, r)
	if err != nil {
		return err
	}
	if cerr != "" {
		_, err := fmt.Fprintf(w, "CLIENT_ERROR %s\r\n", cerr)
		return err
	}
	it.CAS = casID
	serr := be.CompareAndSwap(it)
	if noreply {
		return nil
	}
	switch {
	case serr == nil:
		_, err = w.WriteString("STORED\r\n")
	case errors.Is(serr, ErrCASConflict):
		_, err = w.WriteString("EXISTS\r\n")
	case errors.Is(serr, ErrCacheMiss):
		_, err = w.WriteString("NOT_FOUND\r\n")
	default:
		_, err = fmt.Fprintf(w, "SERVER_ERROR %s\r\n", serr)
	}
	return err
}

func (s *Server) handleIncrDecr(decr bool, fields []string, w *bufio.Writer, be Backend) error {
	noreply := hasNoreply(fields)
	if noreply {
		fields = fields[:len(fields)-1]
	}
	if len(fields) != 2 {
		_, err := w.WriteString("CLIENT_ERROR bad command line format\r\n")
		return err
	}
	delta, derr := parseUint(fields[1], 63)
	if derr != nil {
		_, err := w.WriteString("CLIENT_ERROR invalid numeric delta argument\r\n")
		return err
	}
	d := int64(delta)
	if decr {
		d = -d
	}
	val, serr := be.Increment(fields[0], d)
	if noreply {
		return nil
	}
	var err error
	switch {
	case serr == nil:
		_, err = fmt.Fprintf(w, "%d\r\n", val)
	case errors.Is(serr, ErrCacheMiss):
		_, err = w.WriteString("NOT_FOUND\r\n")
	default:
		_, err = fmt.Fprintf(w, "CLIENT_ERROR %s\r\n", serr)
	}
	return err
}

func (s *Server) handleDelete(fields []string, w *bufio.Writer, be Backend) error {
	noreply := hasNoreply(fields)
	if noreply {
		fields = fields[:len(fields)-1]
	}
	if len(fields) != 1 {
		_, err := w.WriteString("CLIENT_ERROR bad command line format\r\n")
		return err
	}
	serr := be.Delete(fields[0])
	if noreply {
		return nil
	}
	var err error
	if serr == nil {
		_, err = w.WriteString("DELETED\r\n")
	} else {
		_, err = w.WriteString("NOT_FOUND\r\n")
	}
	return err
}

func (s *Server) handleTouch(fields []string, w *bufio.Writer, be Backend) error {
	noreply := hasNoreply(fields)
	if noreply {
		fields = fields[:len(fields)-1]
	}
	if len(fields) != 2 {
		_, err := w.WriteString("CLIENT_ERROR bad command line format\r\n")
		return err
	}
	exp, err := parseInt32(fields[1])
	if err != nil {
		_, werr := w.WriteString("CLIENT_ERROR bad exptime\r\n")
		return werr
	}
	serr := be.Touch(fields[0], exp)
	if noreply {
		return nil
	}
	var werr error
	if serr == nil {
		_, werr = w.WriteString("TOUCHED\r\n")
	} else {
		_, werr = w.WriteString("NOT_FOUND\r\n")
	}
	return werr
}

func (s *Server) handleStats(w *bufio.Writer) error {
	fmt.Fprintf(w, "STAT cmd_get %d\r\n", s.stats.CmdGet.Load())
	fmt.Fprintf(w, "STAT cmd_set %d\r\n", s.stats.CmdSet.Load())
	fmt.Fprintf(w, "STAT get_hits %d\r\n", s.stats.GetHits.Load())
	fmt.Fprintf(w, "STAT get_misses %d\r\n", s.stats.GetMisses.Load())
	fmt.Fprintf(w, "STAT transactions %d\r\n", s.stats.Transactions.Load())
	fmt.Fprintf(w, "STAT curr_connections %d\r\n", s.stats.CurrConns.Load())
	fmt.Fprintf(w, "STAT total_connections %d\r\n", s.stats.TotalConns.Load())
	extra := s.backend.BackendStats()
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "STAT %s %s\r\n", k, extra[k])
	}
	_, err := w.WriteString("END\r\n")
	return err
}
