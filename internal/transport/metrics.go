package transport

import "repro/internal/metrics"

// Transport instrumentation: byte/frame throughput of the framed stream
// connections (the service's socket layer), the robustness events the
// backoff machinery absorbs silently (dial retries, accept backoffs),
// and the queue drops the Memory datagram transport accounts. One atomic add
// per event — cheap enough for the frame path.
var (
	mFramesSent = metrics.Default.Counter("transport_frames_sent_total",
		"Stream frames written by Conn.Send.")
	mFramesRecv = metrics.Default.Counter("transport_frames_received_total",
		"Stream frames read by Conn.Recv.")
	mBytesSent = metrics.Default.Counter("transport_bytes_sent_total",
		"Stream bytes written by Conn.Send, including the length prefix.")
	mBytesRecv = metrics.Default.Counter("transport_bytes_received_total",
		"Stream bytes read by Conn.Recv, including the length prefix.")
	mDialRetries = metrics.Default.Counter("transport_dial_retries_total",
		"DialRetry attempts that failed and backed off before reconnecting.")
	mAcceptBackoffs = metrics.Default.Counter("transport_accept_backoff_total",
		"Transient accept errors absorbed with backoff instead of killing the accept loop.")
	mQueueDrops = metrics.Default.Counter("transport_queue_drops_total",
		"Messages dropped on full receive buffers (Memory datagram transport).")
)
