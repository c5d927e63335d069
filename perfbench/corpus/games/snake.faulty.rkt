(module snake
  (struct posn (x y))
  (struct snake (dir segs))
  (provide
    [move-posn (-> posn/c (one-of/c "up" "down" "left" "right") posn?)]
    [posn-in-board? (-> posn/c integer? integer? boolean?)]
    [snake-head (-> snake? posn?)]
    [snake-grow (-> snake? snake?)])
  (define (posn/c p) (and (posn? p) (integer? (posn-x p)) (integer? (posn-y p))))
  (define (nonempty-snake/c s)
    (and (pair? (snake-segs s)) (posn/c (car (snake-segs s)))))
  (define (move-posn p dir)
    (cond [(equal? dir "up") (posn (posn-x p) (+ (posn-y p) 1))]
          [(equal? dir "down") (posn (posn-x p) (- (posn-y p) 1))]
          [(equal? dir "left") (posn (- (posn-x p) 1) (posn-y p))]
          [else (posn (+ (posn-x p) 1) (posn-y p))]))
  (define (posn-in-board? p w h)
    (and (>= (posn-x p) 0) (< (posn-x p) w)
         (>= (posn-y p) 0) (< (posn-y p) h)))
  (define (snake-head s) (car (snake-segs s)))
  (define (snake-grow s)
    (snake (snake-dir s) (cons (snake-head s) (snake-segs s)))))
