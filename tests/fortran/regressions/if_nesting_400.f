C     400 nested block IFs: RecursionError in the structurer
      PROGRAM IFNEST
      REAL A(10)
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      IF (X .GT. 0.0) THEN
      X = 1.0
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      ENDIF
      END
