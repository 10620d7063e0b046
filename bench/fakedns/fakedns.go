// Package fakedns is a scripted DNS server on all four transports with no
// dohpool code in it. With the honest responder it does the least a DNS
// server can do — copy the question, append a canned answer section — and
// so gives the floor.* round-trip times: what the generator, the kernel
// and the TLS/HTTP stacks cost on this machine before dohpoold adds
// anything. With a lying responder it is what the generator tests point
// the validator at.
package fakedns

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"io"
	"math/big"
	"net"
	"net/http"
	"sync"
	"time"

	"dohpool/bench/dnsmsg"
)

// Responder appends the response to query onto out[:0] and returns it;
// nil drops the query. It is called from several goroutines.
type Responder func(query, out []byte) []byte

// Honest answers every query NOERROR with the given addresses at ttl.
func Honest(addrs [][4]byte, ttl uint32) Responder {
	// The answer section does not depend on the query: owner names are
	// pointers to offset 12.
	section := dnsmsg.Response(make([]byte, 12), dnsmsg.RcodeNoError, addrs, ttl)[12:]
	return func(query, out []byte) []byte {
		if len(query) < 12 {
			return nil
		}
		out = append(out[:0], query...)
		out[2] = 0x80 | query[2]&0x01
		out[3] = 0x80
		binary.BigEndian.PutUint16(out[6:], uint16(len(addrs)))
		return append(out, section...)
	}
}

// Server is a running fake server.
type Server struct {
	// UDPAddr and TCPAddr share a port; TLSAddr is DoT; DoHURL is RFC 8484
	// over HTTP/2.
	UDPAddr, TCPAddr, TLSAddr, DoHURL string
	// ClientTLS trusts the server's self-signed certificate.
	ClientTLS *tls.Config

	udp       *net.UDPConn
	listeners []net.Listener
	httpSrv   *http.Server
	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// Start serves respond on loopback until Close.
func Start(respond Responder) (*Server, error) {
	serverTLS, clientTLS, err := selfSigned()
	if err != nil {
		return nil, err
	}
	s := &Server{ClientTLS: clientTLS, conns: map[net.Conn]struct{}{}}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()

	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.listeners = append(s.listeners, tcp)
	s.TCPAddr = tcp.Addr().String()
	s.udp, err = net.ListenUDP("udp", net.UDPAddrFromAddrPort(tcp.Addr().(*net.TCPAddr).AddrPort()))
	if err != nil {
		// The TCP port's UDP twin is taken; any UDP port will do.
		if s.udp, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
			return nil, err
		}
	}
	s.UDPAddr = s.udp.LocalAddr().String()
	dot, err := tls.Listen("tcp", "127.0.0.1:0", serverTLS)
	if err != nil {
		return nil, err
	}
	s.listeners = append(s.listeners, dot)
	s.TLSAddr = dot.Addr().String()
	doh, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.listeners = append(s.listeners, doh)
	s.DoHURL = "https://" + doh.Addr().String() + "/dns-query"

	s.wg.Add(3)
	go s.serveUDP(respond)
	go s.accept(tcp, respond)
	go s.accept(dot, respond)

	s.httpSrv = &http.Server{TLSConfig: serverTLS, ReadHeaderTimeout: 10 * time.Second,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			query, err := io.ReadAll(io.LimitReader(r.Body, 4096))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			resp := respond(query, make([]byte, 0, 512))
			if resp == nil {
				<-r.Context().Done() // a dropped query: let the client time out
				return
			}
			w.Header().Set("Content-Type", "application/dns-message")
			_, _ = w.Write(resp)
		})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.httpSrv.ServeTLS(doh, "", "") // returns on Close
	}()
	ok = true
	return s, nil
}

func (s *Server) serveUDP(respond Responder) {
	defer s.wg.Done()
	in, out := make([]byte, 4096), make([]byte, 0, 4096)
	for {
		n, from, err := s.udp.ReadFromUDPAddrPort(in)
		if err != nil {
			return
		}
		if resp := respond(in[:n], out); resp != nil {
			_, _ = s.udp.WriteToUDPAddrPort(resp, from)
		}
	}
}

func (s *Server) accept(ln net.Listener, respond Responder) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveStream(conn, respond)
	}
}

func (s *Server) serveStream(conn net.Conn, respond Responder) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	in, out := make([]byte, 4096), make([]byte, 2, 4096)
	for {
		if _, err := io.ReadFull(conn, in[:2]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint16(in))
		if n > len(in) {
			return
		}
		if _, err := io.ReadFull(conn, in[:n]); err != nil {
			return
		}
		resp := respond(in[:n], out[2:])
		if resp == nil {
			continue
		}
		// resp already sits behind out's two prefix bytes unless it outgrew
		// them; the append is then a copy onto itself.
		framed := append(out[:2], resp...)
		binary.BigEndian.PutUint16(framed, uint16(len(resp)))
		if _, err := conn.Write(framed); err != nil {
			return
		}
	}
}

// Close stops every listener and connection and waits for their
// goroutines.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	for _, ln := range s.listeners {
		_ = ln.Close()
	}
	if s.udp != nil {
		_ = s.udp.Close()
	}
	if s.httpSrv != nil {
		_ = s.httpSrv.Close()
	}
	s.wg.Wait()
}

// selfSigned makes a throw-away server identity for 127.0.0.1 and a client
// config that trusts exactly it.
func selfSigned() (server, client *tls.Config, err error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "fakedns"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IsCA:         true, BasicConstraintsValid: true,
		IPAddresses: []net.IP{net.IPv4(127, 0, 0, 1)},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, nil, err
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	server = &tls.Config{Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: key}}, MinVersion: tls.VersionTLS12}
	client = &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS12}
	return server, client, nil
}
