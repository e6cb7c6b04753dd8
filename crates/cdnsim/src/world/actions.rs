//! Timer-driven dispatch: the [`Action`] state machine and the
//! [`tcpsim::App`] callbacks that drive a query through its lifecycle
//! (FE serve, BE reply, direct reply, failover and hedge timers).

use super::*;

/// A BE's reply instant: what to stream back to the FE.
pub(super) struct BeSend {
    pub(super) conn: ConnId,
    pub(super) plan: ResponsePlan,
    pub(super) send_static_too: bool,
}

/// A complete response adopted as the query's result: what the FE now
/// sends down the client connection.
pub(super) struct ServedResponse {
    pub(super) client_conn: ConnId,
    pub(super) plan: ResponsePlan,
    pub(super) static_from_cache: bool,
}

impl ServiceWorld {
    pub(super) fn push_action(&mut self, net: &mut Net, delay: SimDuration, action: Action) {
        // Token values only name table slots; they never order events.
        let token = match self.free_actions.pop() {
            Some(t) => {
                self.actions[t as usize] = Some(action);
                t
            }
            None => {
                self.actions.push(Some(action));
                self.actions.len() as u64 - 1
            }
        };
        net.set_timer(delay, token);
    }

    pub(super) fn push_action_at(&mut self, net: &mut Net, at: SimTime, action: Action) {
        let delay = at.saturating_since(net.now());
        self.push_action(net, delay, action);
    }

    /// The request has fully arrived: admission control, then the FE
    /// service interval (load/brownout-stretched) or, without split
    /// TCP, direct BE processing.
    pub(super) fn handle_request_arrived(&mut self, net: &mut Net, qid: u64) {
        let (fe, be, kw_id, followup) = {
            let q = &self.queries[&qid];
            (q.fe, q.be, q.keyword, q.instant_followup)
        };
        if self.cfg.split_tcp {
            let fe = fe.expect("split mode has an FE");
            // Admission control: above the watermark the request is
            // answered with the shed stub before consuming any FE
            // capacity.
            if let Some(adm) = self.cfg.overload.admission {
                if self.fe_inflight[fe] >= adm.watermark {
                    let client_conn = self.shed_query_state(qid);
                    net.send(
                        client_conn,
                        End::B,
                        SHED_STUB_BYTES,
                        Marker::Error,
                        SHED_CONTENT_ID,
                    );
                    net.close(client_conn, End::B);
                    return;
                }
            }
            self.fe_inflight[fe] += 1;
            self.queries.get_mut(&qid).unwrap().fe_counted = true;
            if self.overload_active() {
                self.metrics
                    .set_gauge("cdnsim.fe_inflight_hiwater", self.fe_inflight[fe] as f64);
            }
            let mut overhead = self.fes[fe].request_overhead_at(net.now());
            // Brownout windows stretch FE processing.
            let slow = self.cfg.faults.fe_slowdown(fe, net.now());
            if slow > 1.0 {
                overhead = SimDuration::from_millis_f64(overhead.as_millis_f64() * slow);
            }
            // Concurrency-dependent queueing delay (the load model's
            // M/M/1-style curve), with capacity-dip fault windows
            // scaling the knee.
            if let Some(model) = self.cfg.load_model {
                let factor = self.cfg.faults.fe_capacity_factor(fe, net.now());
                let qslow = model.fe_slowdown(self.fe_inflight[fe], factor);
                if qslow > 1.0 {
                    overhead = SimDuration::from_millis_f64(overhead.as_millis_f64() * qslow);
                }
            }
            self.queries.get_mut(&qid).unwrap().fe_overhead_ms = overhead.as_millis_f64();
            self.push_action(net, overhead, Action::FeServe { qid });
        } else {
            let region = Some(self.clients[self.queries[&qid].client].region);
            let kw = self.corpus.get(kw_id);
            let result = self.bes[be].1.handle_query(kw, followup, region);
            {
                let q = self.queries.get_mut(&qid).unwrap();
                q.proc_ms = result.proc_time.as_millis_f64();
                q.plan = Some(result.plan);
            }
            self.push_action(net, result.proc_time, Action::BeDirectReply { qid });
        }
    }

    /// The FE's serve instant: burst the cached static portion, then
    /// answer from the result cache, fast-fail to the degraded stub
    /// while the circuit breaker is open, or forward to the BE.
    pub(super) fn act_fe_serve(&mut self, net: &mut Net, qid: u64) {
        let (client_conn, fe, kw_id) = match self.queries.get(&qid) {
            Some(q) => (q.client_conn, q.fe.unwrap(), q.keyword),
            // Stale timer: the client's deadline can fire before a
            // load-stretched FE service interval elapses, abandoning
            // the query while this action is still pending.
            None => return,
        };
        // (a) Burst the static portion when it is resident in the FE's
        // static cache. With the default unbounded prewarmed cache this
        // always hits; a bounded cache can miss, in which case the
        // static bytes ride the BE response and the cache is refilled
        // when that response completes.
        let mut static_hit = false;
        if self.cfg.cache_static {
            let content = self.cfg.composer.static_content;
            if self.fes[fe].static_cached(content, net.now()) {
                static_hit = true;
                self.metrics.inc("cdnsim.fe_static_cache_hits");
                let bytes = self.cfg.composer.static_bytes;
                net.send(client_conn, End::B, bytes, Marker::Static, content);
            } else {
                self.metrics.inc("cdnsim.fe_static_cache_misses");
            }
        }
        self.queries.get_mut(&qid).unwrap().static_from_cache = static_hit;
        // Hypothetical FE result cache.
        if self.fes[fe].caches_results() {
            if let Some(plan) = self.fes[fe].lookup_result(kw_id, net.now()) {
                self.metrics.inc("cdnsim.fe_result_cache_hits");
                if !static_hit {
                    plan.send_static(net, client_conn, End::B);
                }
                plan.send_dynamic(net, client_conn, End::B);
                net.close(client_conn, End::B);
                let q = self.queries.get_mut(&qid).unwrap();
                q.plan = Some(plan);
                q.proc_ms = 0.0;
                return;
            }
            self.metrics.inc("cdnsim.fe_result_cache_misses");
        }
        // Circuit breaker: while open, fetches fast-fail straight to the
        // degraded response instead of hammering a struggling back-end.
        if !self.breaker_admits(fe, net.now()) {
            self.metrics.inc("cdnsim.breaker_fastfails");
            self.degrade_query_state(qid);
            Self::send_degraded_stub(net, client_conn);
            return;
        }
        self.fetch_start(net, qid);
    }

    /// Closes the client leg with the degraded stub in place of the
    /// dynamic portion.
    fn send_degraded_stub(net: &mut Net, client_conn: ConnId) {
        net.send(
            client_conn,
            End::B,
            DEGRADED_STUB_BYTES,
            Marker::Error,
            DEGRADED_CONTENT_ID,
        );
        net.close(client_conn, End::B);
    }

    /// (b) Forward the query over a persistent BE connection: check one
    /// out, take the BE in-flight slot, stamp the fetch start, and send
    /// it as fetch attempt 0.
    pub(super) fn fetch_start(&mut self, net: &mut Net, qid: u64) {
        let (fe, be) = {
            let q = &self.queries[&qid];
            (q.fe.unwrap(), q.be)
        };
        let be_conn = self.checkout_be_conn(net, fe, be, qid);
        self.be_inflight[be] += 1;
        if self.overload_active() {
            self.metrics
                .set_gauge("cdnsim.be_inflight_hiwater", self.be_inflight[be] as f64);
        }
        {
            let q = self.queries.get_mut(&qid).unwrap();
            q.be_conn = Some(be_conn);
            q.be_counted = Some(be);
            q.fetch_start = Some(net.now());
        }
        self.send_fetch(net, qid, be_conn, 0);
    }

    /// Sends the BE query on `conn` as fetch attempt `attempt`, then
    /// arms that attempt's deadline and hedge timers, in that order.
    fn send_fetch(&mut self, net: &mut Net, qid: u64, conn: ConnId, attempt: u32) {
        let req = self.queries[&qid].req.clone();
        req.send_as_be_query(net, conn, End::A);
        if let Some(d) = self.cfg.fe_fetch_deadline {
            self.push_action(net, d, Action::FetchDeadline { qid, attempt });
        }
        if let Some(h) = self.cfg.overload.hedge {
            self.push_action(net, h.after, Action::HedgeFire { qid, attempt });
        }
    }

    pub(super) fn act_be_reply(&mut self, net: &mut Net, qid: u64, attempt: u32) {
        if let Some(b) = self.be_reply(qid, attempt) {
            Self::send_be_response(net, &b);
        }
    }

    /// Emit a [`BeSend`]: the (optional) piggy-backed static portion
    /// followed by the dynamic response on the FE↔BE connection.
    pub(super) fn send_be_response(net: &mut Net, b: &BeSend) {
        if b.send_static_too {
            net.send(
                b.conn,
                End::B,
                b.plan.static_bytes,
                Marker::BeResponse,
                b.plan.static_content,
            );
        }
        b.plan.send_as_be_response(net, b.conn, End::B);
    }

    /// Staleness check for the primary BE's reply instant. `None` means
    /// the reply is stale (the query failed over, degraded, or is gone)
    /// and nothing must be sent.
    pub(super) fn be_reply(&mut self, qid: u64, attempt: u32) -> Option<BeSend> {
        let q = self.queries.get(&qid)?;
        // A reply from a BE the query has since failed away from
        // (or a degraded query) is stale — drop it.
        if q.fetch_attempts != attempt || q.degraded {
            return None;
        }
        let conn = q.be_conn?;
        let plan = q.plan.clone()?;
        Some(BeSend {
            conn,
            plan,
            send_static_too: !q.static_from_cache,
        })
    }

    /// The no-split BE finished processing: it replies straight down the
    /// client connection and closes.
    pub(super) fn act_be_direct_reply(&mut self, net: &mut Net, qid: u64) {
        let (conn, plan) = match self.queries.get(&qid) {
            Some(q) => (q.client_conn, q.plan.clone().expect("direct reply plan")),
            // The client deadline abandoned the query while the BE was
            // still processing it.
            None => return,
        };
        plan.send_static(net, conn, End::B);
        plan.send_dynamic(net, conn, End::B);
        net.close(conn, End::B);
    }

    pub(super) fn handle_be_response_complete(&mut self, net: &mut Net, qid: u64) {
        let served = self.response_complete(net, qid);
        Self::send_served_response(net, &served);
    }

    /// Emit a [`ServedResponse`] on the client leg: static portion (when
    /// it did not already burst from the FE cache), dynamic portion, FIN.
    pub(super) fn send_served_response(net: &mut Net, s: &ServedResponse) {
        if !s.static_from_cache {
            s.plan.send_static(net, s.client_conn, End::B);
        }
        s.plan.send_dynamic(net, s.client_conn, End::B);
        net.close(s.client_conn, End::B);
    }

    /// The state half of a completed primary fetch: release the BE
    /// slot, cancel the losing hedge leg (aborting its connection),
    /// feed the breaker, return the pooled connection, and refill the
    /// FE caches. The client-leg sends belong to the caller; the cache
    /// refills are state-only, so doing them before the sends leaves
    /// the trajectory unchanged.
    pub(super) fn response_complete(&mut self, net: &mut Net, qid: u64) -> ServedResponse {
        let (fe, be, be_conn, client_conn, plan, kw_id, counted, static_from_cache) = {
            let q = self.queries.get_mut(&qid).unwrap();
            q.fetch_done = Some(net.now());
            (
                q.fe.unwrap(),
                q.be,
                q.be_conn.take().unwrap(),
                q.client_conn,
                q.plan.clone().unwrap(),
                q.keyword,
                q.be_counted.take(),
                q.static_from_cache,
            )
        };
        if let Some(b) = counted {
            self.be_inflight[b] = self.be_inflight[b].saturating_sub(1);
        }
        // The primary won the race: cancel any outstanding hedge.
        self.cancel_hedge(net, qid);
        self.breaker_record_success(fe);
        self.return_be_conn(be_conn, fe, be);
        // Refill the static cache after a miss-path fetch (only reachable
        // with a bounded static cache).
        if self.cfg.cache_static && !static_from_cache {
            self.fes[fe].fill_static(plan.static_content, plan.static_bytes, net.now());
            self.metrics.inc("cdnsim.fe_static_cache_fills");
        }
        if self.fes[fe].caches_results() {
            let out = self.fes[fe].store_result(kw_id, plan.clone(), net.now());
            if out.evicted > 0 {
                self.metrics
                    .add("cdnsim.fe_result_cache_evictions", out.evicted);
            }
        }
        ServedResponse {
            client_conn,
            plan,
            static_from_cache,
        }
    }

    /// FE fetch deadline fired: the BE response for fetch attempt
    /// `attempt` has not fully arrived. Fail over to the next live BE
    /// site on a (possibly cold) connection, or degrade the response when
    /// no live site remains.
    pub(super) fn act_fetch_deadline(&mut self, net: &mut Net, qid: u64, attempt: u32) {
        let (fe, cur_be, stalled_conn) = match self.queries.get(&qid) {
            // Completed, degraded or already failed over: stale timer.
            Some(q) if !q.resp_handled && !q.degraded && q.fetch_attempts == attempt => {
                match q.fe {
                    Some(fe) => (fe, q.be, q.be_conn),
                    None => return,
                }
            }
            _ => return,
        };
        if let Some(conn) = stalled_conn {
            net.abort(conn);
            self.conn_info.remove(&conn);
        }
        // The fetch attempt failed: release its BE slot, cancel its
        // hedge leg, and feed the FE's circuit breaker.
        if let Some(b) = self.queries.get_mut(&qid).and_then(|q| q.be_counted.take()) {
            self.be_inflight[b] = self.be_inflight[b].saturating_sub(1);
        }
        self.cancel_hedge(net, qid);
        self.breaker_record_failure(fe, net.now());
        let now = net.now();
        let next_be = self.nearest_live_be(fe, now, Some(cur_be));
        let next_be = match next_be {
            // One failover per site at most: once every site has been
            // given a deadline's worth of time, serve what we have.
            Some(b) if (attempt as usize) < self.bes.len().saturating_sub(1) => b,
            _ => {
                let client_conn = self.degrade_query_state(qid);
                Self::send_degraded_stub(net, client_conn);
                return;
            }
        };
        let rtt = self.fe_be_rtt_ms(fe, next_be);
        let dist = self.fe_be_distance_miles(fe, next_be);
        self.metrics.inc("cdnsim.fetch_failovers");
        {
            let q = self.queries.get_mut(&qid).unwrap();
            q.be = next_be;
            q.fetch_attempts += 1;
            q.be_handled = false;
            q.plan = None;
            q.srv_progress = RecvProgress::new();
            q.resp_progress = RecvProgress::new();
            q.rtt_fe_be_ms = rtt;
            q.dist_fe_be_miles = dist;
        }
        // Not `fetch_start`: a failover keeps the query's original
        // `fetch_start` stamp (fetch latency spans all attempts).
        let conn = self.checkout_be_conn(net, fe, next_be, qid);
        self.be_inflight[next_be] += 1;
        if self.overload_active() {
            self.metrics.set_gauge(
                "cdnsim.be_inflight_hiwater",
                self.be_inflight[next_be] as f64,
            );
        }
        {
            let q = self.queries.get_mut(&qid).unwrap();
            q.be_conn = Some(conn);
            q.be_counted = Some(next_be);
        }
        self.send_fetch(net, qid, conn, attempt + 1);
    }

    /// Hedge timer fired with the primary fetch still outstanding:
    /// duplicate the query to the next-nearest live BE site. First
    /// response wins; the loser is cancelled.
    pub(super) fn act_hedge_fire(&mut self, net: &mut Net, qid: u64, attempt: u32) {
        let (fe, cur_be) = match self.queries.get(&qid) {
            // Completed, degraded, failed over, or already hedged: the
            // timer is stale (hedges are per fetch attempt).
            Some(q)
                if !q.resp_handled
                    && !q.degraded
                    && !q.shed
                    && q.fetch_attempts == attempt
                    && q.hedge_conn.is_none()
                    && q.be_conn.is_some() =>
            {
                match q.fe {
                    Some(fe) => (fe, q.be),
                    None => return,
                }
            }
            _ => return,
        };
        let now = net.now();
        let hedge_be = match self.nearest_live_be(fe, now, Some(cur_be)) {
            Some(b) => b,
            None => return, // nowhere to hedge to
        };
        self.metrics.inc("cdnsim.hedges_launched");
        let conn = self.checkout_be_conn_as(net, fe, hedge_be, qid, Leg::Hedge);
        self.be_inflight[hedge_be] += 1;
        if self.overload_active() {
            self.metrics.set_gauge(
                "cdnsim.be_inflight_hiwater",
                self.be_inflight[hedge_be] as f64,
            );
        }
        let q = self.queries.get_mut(&qid).unwrap();
        q.hedge_conn = Some(conn);
        q.hedge_be = Some(hedge_be);
        q.hedge_counted = Some(hedge_be);
        let req = q.req.clone();
        req.send_as_be_query(net, conn, End::A);
    }

    /// The hedge BE finished processing: stream its response to the FE
    /// (mirror of [`Self::act_be_reply`] for the hedge leg).
    pub(super) fn act_hedge_reply(&mut self, net: &mut Net, qid: u64, attempt: u32) {
        let send = match self.queries.get(&qid) {
            Some(q) if q.fetch_attempts == attempt && !q.degraded && !q.resp_handled => {
                match (q.hedge_conn, q.hedge_plan.clone()) {
                    (Some(conn), Some(plan)) => BeSend {
                        conn,
                        plan,
                        send_static_too: !q.static_from_cache,
                    },
                    _ => return,
                }
            }
            _ => return,
        };
        Self::send_be_response(net, &send);
    }

    /// The hedge response arrived at the FE before the primary: the
    /// hedge wins. Adopt its result as the query's ground truth, abort
    /// the losing primary fetch, refill the FE caches, and serve the
    /// client.
    pub(super) fn hedge_response_complete(&mut self, net: &mut Net, qid: u64) {
        let (
            fe,
            hedge_be,
            hedge_conn,
            client_conn,
            plan,
            kw_id,
            counted,
            primary_conn,
            primary_counted,
            static_from_cache,
        ) = {
            let q = self.queries.get_mut(&qid).unwrap();
            q.fetch_done = Some(net.now());
            (
                q.fe.unwrap(),
                q.hedge_be.take().unwrap(),
                q.hedge_conn.take().unwrap(),
                q.client_conn,
                q.hedge_plan.take().unwrap(),
                q.keyword,
                q.hedge_counted.take(),
                q.be_conn.take(),
                q.be_counted.take(),
                q.static_from_cache,
            )
        };
        self.metrics.inc("cdnsim.hedge_wins");
        if let Some(b) = counted {
            self.be_inflight[b] = self.be_inflight[b].saturating_sub(1);
        }
        // Cancel the losing primary leg.
        if let Some(c) = primary_conn {
            net.abort(c);
            self.conn_info.remove(&c);
        }
        if let Some(b) = primary_counted {
            self.be_inflight[b] = self.be_inflight[b].saturating_sub(1);
        }
        self.breaker_record_success(fe);
        self.return_be_conn(hedge_conn, fe, hedge_be);
        let rtt = self.fe_be_rtt_ms(fe, hedge_be);
        let dist = self.fe_be_distance_miles(fe, hedge_be);
        {
            let q = self.queries.get_mut(&qid).unwrap();
            q.be = hedge_be;
            q.proc_ms = q.hedge_proc_ms;
            q.plan = Some(plan.clone());
            q.rtt_fe_be_ms = rtt;
            q.dist_fe_be_miles = dist;
        }
        if self.cfg.cache_static && !static_from_cache {
            self.fes[fe].fill_static(plan.static_content, plan.static_bytes, net.now());
            self.metrics.inc("cdnsim.fe_static_cache_fills");
        }
        if self.fes[fe].caches_results() {
            let out = self.fes[fe].store_result(kw_id, plan.clone(), net.now());
            if out.evicted > 0 {
                self.metrics
                    .add("cdnsim.fe_result_cache_evictions", out.evicted);
            }
        }
        Self::send_served_response(
            net,
            &ServedResponse {
                client_conn,
                plan,
                static_from_cache,
            },
        );
    }

    /// A complete [`Marker::BeQuery`] arrived at the primary BE: stamp
    /// the query's plan and processing time. Returns the (possibly
    /// stretched) processing delay and the fetch attempt the eventual
    /// reply must match against.
    pub(super) fn be_query_arrived(&mut self, qid: u64) -> (SimDuration, u32) {
        let be = self.queries[&qid].be;
        let (proc, plan) = self.be_process(qid, be);
        let q = self.queries.get_mut(&qid).unwrap();
        q.proc_ms = proc.as_millis_f64();
        q.plan = Some(plan);
        (proc, q.fetch_attempts)
    }

    /// Runs the query's keyword through BE `be`'s query handler and
    /// stretches the processing time under the load model.
    fn be_process(&mut self, qid: u64, be: usize) -> (SimDuration, ResponsePlan) {
        let (kw_id, followup, client) = {
            let q = &self.queries[&qid];
            (q.keyword, q.instant_followup, q.client)
        };
        let region = Some(self.clients[client].region);
        let kw = self.corpus.get(kw_id);
        let result = self.bes[be].1.handle_query(kw, followup, region);
        let mut proc = result.proc_time;
        // BE concurrency slowdown: processing time stretches with the
        // queue at this BE site.
        if let Some(model) = self.cfg.load_model {
            let slow = model.be_slowdown(self.be_inflight[be]);
            if slow > 1.0 {
                proc = SimDuration::from_millis_f64(proc.as_millis_f64() * slow);
            }
        }
        (proc, result.plan)
    }
}

impl App for ServiceWorld {
    fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
        let info = match self.conn_info.get(&conn) {
            Some(i) => *i,
            None => return,
        };
        if info.leg == Leg::Client && end == End::A {
            if let Some(q) = self.queries.get(&info.qid) {
                let req = q.req.clone();
                req.send(net, conn, End::A);
            }
        }
    }

    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, spans: &[DeliveredSpan]) {
        let info = match self.conn_info.get(&conn) {
            Some(i) => *i,
            None => return,
        };
        match info.leg {
            Leg::Warmup { fe, be } => {
                let entry = self.warmup_progress.entry(conn).or_insert((0, 0));
                let bytes: u64 = spans.iter().map(|s| s.len as u64).sum();
                match end {
                    End::B => {
                        entry.0 += bytes;
                        if entry.0 >= WARMUP_REQ_BYTES {
                            net.send(conn, End::B, WARMUP_RESP_BYTES, Marker::Other, 0);
                        }
                    }
                    End::A => {
                        entry.1 += bytes;
                        if entry.1 >= WARMUP_RESP_BYTES {
                            self.warmup_progress.remove(&conn);
                            self.return_be_conn(conn, fe, be);
                        }
                    }
                }
            }
            Leg::Client => {
                let qid = info.qid;
                match end {
                    End::B => {
                        // Server side of the client leg (FE, or BE when
                        // split TCP is off): request bytes.
                        let ready = {
                            let q = match self.queries.get_mut(&qid) {
                                Some(q) => q,
                                None => return,
                            };
                            q.srv_progress.absorb(spans);
                            let done = q.srv_progress.complete(Marker::Request, q.req.bytes);
                            if done && !q.request_handled {
                                q.request_handled = true;
                                true
                            } else {
                                false
                            }
                        };
                        if ready {
                            self.handle_request_arrived(net, qid);
                        }
                    }
                    End::A => {
                        // Client receiving the response; completion is
                        // signalled by the FIN.
                        if let Some(q) = self.queries.get_mut(&qid) {
                            q.resp_progress.absorb(spans);
                        }
                    }
                }
            }
            Leg::Be => {
                let qid = info.qid;
                match end {
                    End::B => {
                        // BE receiving the forwarded query.
                        let ready = {
                            let q = match self.queries.get_mut(&qid) {
                                Some(q) => q,
                                None => return,
                            };
                            q.srv_progress.absorb(spans);
                            let done = q.srv_progress.complete(Marker::BeQuery, q.req.bytes);
                            if done && !q.be_handled {
                                q.be_handled = true;
                                true
                            } else {
                                false
                            }
                        };
                        if ready {
                            let (proc, attempt) = self.be_query_arrived(qid);
                            self.push_action(net, proc, Action::BeReply { qid, attempt });
                        }
                    }
                    End::A => {
                        // FE receiving the BE response.
                        let ready = {
                            let q = match self.queries.get_mut(&qid) {
                                Some(q) => q,
                                None => return,
                            };
                            q.resp_progress.absorb(spans);
                            let expected = match &q.plan {
                                Some(p) => {
                                    p.dynamic_bytes
                                        + if q.static_from_cache {
                                            0
                                        } else {
                                            p.static_bytes
                                        }
                                }
                                None => u64::MAX,
                            };
                            let done = q.resp_progress.complete(Marker::BeResponse, expected);
                            if done && !q.resp_handled {
                                q.resp_handled = true;
                                true
                            } else {
                                false
                            }
                        };
                        if ready {
                            self.handle_be_response_complete(net, qid);
                        }
                    }
                }
            }
            Leg::Hedge => {
                let qid = info.qid;
                match end {
                    End::B => {
                        // Hedge BE receiving the duplicated query.
                        let ready = {
                            let q = match self.queries.get_mut(&qid) {
                                Some(q) => q,
                                None => return,
                            };
                            q.hedge_srv_progress.absorb(spans);
                            let done = q.hedge_srv_progress.complete(Marker::BeQuery, q.req.bytes);
                            if done && !q.hedge_be_handled {
                                q.hedge_be_handled = true;
                                true
                            } else {
                                false
                            }
                        };
                        if ready {
                            // Unless the hedge was cancelled before its
                            // BE saw the query.
                            if let Some(be) = self.queries[&qid].hedge_be {
                                let (proc, plan) = self.be_process(qid, be);
                                let q = self.queries.get_mut(&qid).unwrap();
                                q.hedge_proc_ms = proc.as_millis_f64();
                                q.hedge_plan = Some(plan);
                                let attempt = q.fetch_attempts;
                                self.push_action(net, proc, Action::HedgeReply { qid, attempt });
                            }
                        }
                    }
                    End::A => {
                        // FE receiving the hedge BE response; first
                        // complete response (primary or hedge) wins.
                        let ready = {
                            let q = match self.queries.get_mut(&qid) {
                                Some(q) => q,
                                None => return,
                            };
                            q.hedge_resp_progress.absorb(spans);
                            let expected = match &q.hedge_plan {
                                Some(p) => {
                                    p.dynamic_bytes
                                        + if q.static_from_cache {
                                            0
                                        } else {
                                            p.static_bytes
                                        }
                                }
                                None => u64::MAX,
                            };
                            let done = q.hedge_resp_progress.complete(Marker::BeResponse, expected);
                            if done && !q.resp_handled {
                                q.resp_handled = true;
                                true
                            } else {
                                false
                            }
                        };
                        if ready {
                            self.hedge_response_complete(net, qid);
                        }
                    }
                }
            }
        }
    }

    fn on_fin(&mut self, net: &mut Net, conn: ConnId, end: End) {
        let info = match self.conn_info.get(&conn) {
            Some(i) => *i,
            None => return,
        };
        if info.leg == Leg::Client && end == End::A {
            self.finish_query(net, info.qid);
        }
    }

    fn on_timer(&mut self, net: &mut Net, token: u64) {
        let action = self.actions[token as usize]
            .take()
            .expect("app timer fired twice");
        self.free_actions.push(token);
        match action {
            Action::Start(spec) => self.start_query(net, spec, 0),
            Action::StartRetry { spec, attempt } => self.start_query(net, spec, attempt),
            Action::FeServe { qid } => self.act_fe_serve(net, qid),
            Action::BeReply { qid, attempt } => self.act_be_reply(net, qid, attempt),
            Action::BeDirectReply { qid } => self.act_be_direct_reply(net, qid),
            Action::ClientDeadline { qid } => self.act_client_deadline(net, qid),
            Action::FetchDeadline { qid, attempt } => self.act_fetch_deadline(net, qid, attempt),
            Action::HedgeFire { qid, attempt } => self.act_hedge_fire(net, qid, attempt),
            Action::HedgeReply { qid, attempt } => self.act_hedge_reply(net, qid, attempt),
            Action::FaultStart { window } => self.act_fault_start(net, window),
            Action::MappingEpoch => self.act_mapping_epoch(net),
        }
    }
}
